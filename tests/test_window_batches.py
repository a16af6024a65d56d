"""Window batches against the straight-line oracles.

Events go through ``partition_windows`` (interning into one
``WindowBatch`` per window), ``build_graphs`` (one lexsort per window, none
for a window already in order) and ``extract_features``; every per-token
result must equal the oracles run on that token's transfers alone.  Values are uint64 limbs plus a side dict for
values of 2**128 and more, so values at and around each limb edge are drawn
on purpose.
"""

from __future__ import annotations

from array import array
from dataclasses import fields
from itertools import accumulate
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tokengraphs.graphs as graphs_module
from tokengraphs.cli import main as cli_main
from tokengraphs.graphs import build_graphs, weak_components
from tokengraphs.ingest import (UINT256_MAX, BlockWindow, WindowBatch, append_values,
                                format_fixture_line, partition_windows)

from conftest import batch_of, batch_rows, feature_row, make_event
from oracles import bfs_components, straight_line_features

WIDTH = 1_000
FIRST = 18_000_000

# the limb edges: the top of a 32-bit limb, the top of the low uint64 limb and
# the start of the high one, the start of the top 32-bit limb, the top of both
# uint64 limbs, and the first and last value kept in the side dict
EDGE_VALUES = (2**32 - 1, 2**64 - 1, 2**64, 2**96, 2**128 - 1, 2**128, UINT256_MAX)
uint256s = st.one_of(st.integers(0, 1_000), st.sampled_from(EDGE_VALUES),
                     st.integers(0, UINT256_MAX))


def _columns_hold_no_objects(record) -> bool:
    return all(getattr(record, f.name).dtype != object for f in fields(record)
               if isinstance(getattr(record, f.name), np.ndarray))


@st.composite
def windows(draw):
    """Events of one or two consecutive windows, shuffled inside each window.

    A handful of tokens draw their endpoints from one small address pool, so
    tokens share addresses, and self-loops, parallel edges and equal
    (block, logIndex) pairs are common.
    """
    n_tokens = draw(st.integers(1, 4))
    pool = draw(st.integers(1, 6))
    events = []
    for window_idx in range(draw(st.integers(1, 2))):
        rows = draw(st.lists(st.tuples(
            st.integers(0, n_tokens - 1), st.integers(0, pool - 1),
            st.integers(0, pool - 1), uint256s,
            st.integers(0, 3), st.integers(0, 2)), min_size=1, max_size=40))
        start = FIRST + window_idx * WIDTH
        window_events = [
            make_event(f"0x{a + 1:x}", f"0x{b + 1:x}", value=value,
                       block=start + offset * (WIDTH // 4), log_index=log_index,
                       token=f"0x{t + 0xf1:x}", tx=len(events) + i + 1)
            for i, (t, a, b, value, offset, log_index) in enumerate(rows)]
        events += draw(st.permutations(window_events))
    return events


def _expected_edges(events, window):
    """Each token's edges as (from, to, value, block), in stable
    (block, logIndex) order of the input."""
    edges: dict[str, list] = {}
    inside = [e for e in events if window.start <= e.block < window.end]
    for e in sorted(inside, key=lambda e: (e.block, e.log_index)):
        edges.setdefault(e.token, []).append((e.from_addr, e.to_addr, e.value, e.block))
    return edges


def _assert_matches_the_oracles(events):
    """Every window's batch rows, graphs and features equal the oracles'.
    Before the graphs are built, ``build_graphs``' order check must say
    whether the rows are in (token, block, logIndex) order as ``sorted`` does."""
    groups = list(partition_windows(events, WIDTH).items())
    assert [w.start for w, _ in groups] == sorted({e.block // WIDTH * WIDTH
                                                    for e in events})
    for window, batch in groups:
        inside = [e for e in events if window.start <= e.block < window.end]
        assert batch_rows(batch) == [tuple(e[:6]) for e in inside]
        assert _columns_hold_no_objects(batch)
        keys = list(zip(batch.token.tolist(), batch.block.tolist(), batch.log_index.tolist()))
        assert graphs_module._in_order(batch.token, batch.block,
                                       batch.log_index) == (keys == sorted(keys))
        expected = _expected_edges(events, window)

        graphs = build_graphs(batch, window)
        assert set(graphs) == set(expected)
        for token, graph in graphs.items():
            assert _columns_hold_no_objects(graph)
            edges = expected[token]
            assert graph.nodes.dtype == "S42"
            nodes = list(map(bytes.decode, graph.nodes.tolist()))
            assert [(nodes[s], nodes[d], v, b) for s, d, v, b in zip(
                graph.edge_from.tolist(), graph.edge_to.tolist(),
                graph.values, graph.blocks.tolist())] == edges
            # a node is a (token, address) pair: nodes are exactly this
            # token's endpoints, whatever other tokens touch the same address
            assert sorted(nodes) == sorted({a for f, t, _v, _b in edges for a in (f, t)})
            assert graph.amount == sum(value for _f, _t, value, _b in edges)

            fv = feature_row(graph)
            oracle = straight_line_features(edges)
            for name in ("num_nodes", "num_edges", "num_components", "lifetime",
                         "amount"):
                assert getattr(fv, name) == oracle[name]
            for name in ("density", "avg_comp_size", "transfer_std_dev"):
                assert getattr(fv, name) == pytest.approx(oracle[name], abs=1e-10,
                                                       rel=1e-10)
            count, sizes = bfs_components(graph.num_nodes, list(zip(
                graph.edge_from.tolist(), graph.edge_to.tolist())))
            components = weak_components(graph)
            assert (components.count, sorted(components.sizes)) == (count, sizes)


@settings(max_examples=200, deadline=None)
@given(windows(), st.integers(1, 8))
def test_batches_graphs_and_features_match_the_oracles(events, check_rows):
    """Each drawn window twice: shuffled, and grouped by token in
    (block, logIndex) order, as a fixture written token by token is, which
    ``build_graphs`` takes without a sort.  The order check steps through
    the rows a few at a time, so its step boundaries fall inside windows."""
    grouped = sorted(events, key=lambda e: (e.block // WIDTH, e.token, e.block, e.log_index))
    with mock.patch.object(graphs_module, "_CHECK_ROWS", check_rows):
        _assert_matches_the_oracles(events)
        _assert_matches_the_oracles(grouped)
    for _window, batch in partition_windows(grouped, WIDTH).items():
        assert graphs_module._in_order(batch.token, batch.block, batch.log_index)


@pytest.mark.parametrize("rows", [
    [(1, 0, 1), (1, 0, 0)],             # a logIndex inversion inside one block
    [(1, 0, 0), (2, 0, 0), (1, 0, 0)],  # equal (block, logIndex) pairs across tokens
    [(1, 0, 0), (2, 1, 0), (1, 2, 0)],  # a token that comes back after another
], ids=["log-index-inversion", "equal-pairs-across-tokens", "token-comes-back"])
def test_a_window_out_of_token_block_log_index_order_is_sorted(rows):
    """(token, block, logIndex) rows in input order that ``build_graphs`` must sort."""
    events = [make_event(f"0x{i + 1:x}", f"0x{i + 2:x}", value=i + 1, block=FIRST + block,
                         log_index=log_index, token=f"0x{token:x}", tx=i + 1)
              for i, (token, block, log_index) in enumerate(rows)]
    (_window, batch), = partition_windows(events, WIDTH).items()
    assert not graphs_module._in_order(batch.token, batch.block, batch.log_index)
    _assert_matches_the_oracles(events)


def test_a_shared_address_is_one_node_in_each_of_its_tokens():
    events = [make_event("0xa", "0xb", token="0x01", tx=1),
              make_event("0xb", "0xa", token="0x02", tx=2),
              make_event("0xb", "0xc", token="0x01", tx=3)]
    batch = batch_of(events)
    b, a, c = (b"0x" + s.rjust(40, b"0") for s in (b"b", b"a", b"c"))
    assert batch.nodes == [a + b + c, b + a]
    graphs = build_graphs(batch, BlockWindow(FIRST, FIRST + WIDTH))
    assert [g.num_nodes for g in graphs.values()] == [3, 2]
    assert sum(g.num_nodes for g in graphs.values()) == len(
        {(e.token, a) for e in events for a in (e.from_addr, e.to_addr)})


def test_a_node_address_that_is_not_42_bytes_long_is_refused():
    with pytest.raises(ValueError, match="not 42 bytes long"):
        partition_windows([make_event()._replace(from_addr="0xab")], WIDTH)


def test_no_events_make_no_windows():
    assert partition_windows(iter([]), WIDTH) == {}


def test_values_at_every_limb_edge_stay_exact():
    values = [2**64 - 1, 2**64, 2**128 - 1, 2**128, UINT256_MAX, 0, 7, 2**64 + 5]
    events = [make_event("0xa", "0xb", value=value, block=FIRST + 10 - i, log_index=i,
                         token=f"0x{i % 3 + 1:x}", tx=i + 1)
              for i, value in enumerate(values)]
    (window, batch), = partition_windows(iter(events), WIDTH).items()
    assert batch_rows(batch) == [tuple(e[:6]) for e in events]
    assert sorted(batch.wide.values()) == [2**128, UINT256_MAX]
    graphs = build_graphs(batch, window)
    expected = _expected_edges(events, window)
    for token, graph in graphs.items():
        assert graph.values == [value for _f, _t, value, _b in expected[token]]
        assert graph.amount == sum(graph.values)
    assert sum(g.amount for g in graphs.values()) == sum(values)


@st.composite
def value_runs(draw):
    """Per-token uint256 value lists, and the rows of all of them, shuffled."""
    runs = draw(st.lists(st.lists(uint256s, min_size=1, max_size=60),
                         min_size=1, max_size=5))
    rows = [(t, value) for t, run in enumerate(runs) for value in run]
    return runs, draw(st.permutations(rows))


@settings(max_examples=200, deadline=None)
@given(value_runs(), st.integers(1, 64))
def test_limb_sums_equal_python_sums(runs_and_rows, chunk):
    runs, rows = runs_and_rows
    lo, hi, wide = array("Q"), array("Q"), {}
    values = [value for _t, value in rows]
    for start in range(0, len(values), chunk):
        append_values(lo, hi, wide, values[start:start + chunk])
    n = len(rows)
    # row r of token t is transfer r of the window, at block r: input order is
    # (block, logIndex) order
    batch = WindowBatch([f"0x{t:040x}" for t in range(len(runs))], [b"0x" + b"0" * 40] * len(runs),
                        np.array([t for t, _v in rows], np.int32), np.zeros(n, np.int32),
                        np.zeros(n, np.int32), np.arange(n, dtype=np.int64),
                        np.zeros(n, np.int64), np.frombuffer(lo, np.uint64),
                        np.frombuffer(hi, np.uint64), wide)
    assert batch.values == values
    graphs = build_graphs(batch, BlockWindow(0, n))
    for t, run in enumerate(runs):
        graph = graphs[f"0x{t:040x}"]
        assert graph.values == [value for token, value in rows if token == t]
        assert graph.amount == sum(run)


@settings(max_examples=100, deadline=None)
@given(value_runs(), st.sampled_from("<>"))
def test_limb_sums_are_exact_in_either_byte_order(runs_and_rows, byteorder):
    runs, _rows = runs_and_rows
    lo, hi, wide = array("Q"), array("Q"), {}
    append_values(lo, hi, wide, [value for run in runs for value in run])
    starts = list(accumulate(len(run) for run in runs[:-1]))
    column = lambda limbs: np.frombuffer(limbs, np.uint64).astype(byteorder + "u8")
    assert graphs_module._limb_sums(column(lo), column(hi), [0, *starts]) == [
        sum(value for value in run if value < 2**128) for run in runs]


def test_a_window_past_the_exact_sum_limit_exits_2(tmp_path, capsys):
    fixture = tmp_path / "fixture.tsv"
    fixture.write_text("".join(
        format_fixture_line(make_event("0xa", "0xb", value=2**64, block=FIRST + i,
                                       log_index=i, tx=i + 1)) + "\n"
        for i in range(4)))
    out = tmp_path / "features.csv"
    argv = ["features", "--fixture", str(fixture), "--out", str(out)]
    with mock.patch.object(graphs_module, "MAX_WINDOW_TRANSFERS", 4):
        assert cli_main(argv) == 0
    capsys.readouterr()
    with mock.patch.object(graphs_module, "MAX_WINDOW_TRANSFERS", 3):
        assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: window 18000000-18100000 holds 4 transfers; "
                            f"values are summed exactly for at most 3\n")
    assert captured.out == ""
