"""Window batches against the straight-line oracles.

Fixture events go through ``iter_window_groups`` (interning into one
``WindowBatch`` per window), ``build_graphs`` (one lexsort per window) and
``extract_features``; every per-token result must equal the oracles run on
that token's transfers alone.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tokengraphs.ingest as ingest
from tokengraphs.features import extract_features
from tokengraphs.graphs import build_graphs, weak_components
from tokengraphs.ingest import UINT256_MAX, BlockWindow, iter_window_groups

from conftest import batch_of, batch_rows, make_event
from oracles import bfs_components, straight_line_features

WIDTH = 1_000
FIRST = 18_000_000


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
            st.integers(0, pool - 1),
            st.one_of(st.integers(0, 1_000), st.integers(0, UINT256_MAX)),
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


@settings(max_examples=200, deadline=None)
@given(windows(), st.sampled_from((1, 3, 16, ingest._CHUNK)))
def test_batches_graphs_and_features_match_the_oracles(events, chunk):
    with mock.patch.object(ingest, "_CHUNK", chunk):
        groups = list(iter_window_groups(iter(events), WIDTH))
    assert [w.start for w, _ in groups] == sorted({e.block // WIDTH * WIDTH
                                                    for e in events})
    for window, batch in groups:
        inside = [e for e in events if window.start <= e.block < window.end]
        assert batch_rows(batch) == [tuple(e[:6]) for e in inside]
        expected = _expected_edges(events, window)

        graphs = build_graphs(batch, window)
        assert set(graphs) == set(expected)
        for token, graph in graphs.items():
            edges = expected[token]
            nodes = graph.nodes
            assert [(nodes[s], nodes[d], v, b) for s, d, v, b in zip(
                graph.edge_from.tolist(), graph.edge_to.tolist(),
                graph.values.tolist(), graph.blocks.tolist())] == edges
            # a node is a (token, address) pair: nodes are exactly this
            # token's endpoints, whatever other tokens touch the same address
            assert sorted(nodes) == sorted({a for f, t, _v, _b in edges for a in (f, t)})
            assert graph.amount == sum(value for _f, _t, value, _b in edges)

            fv = extract_features(graph)
            oracle = straight_line_features(edges)
            for name in ("num_nodes", "num_edges", "num_components", "lifetime",
                         "amount"):
                assert getattr(fv, name) == oracle[name]
            for name in ("density", "avg_comp_size", "transfer_std_dev"):
                assert fv.value(name) == pytest.approx(oracle[name], abs=1e-10,
                                                       rel=1e-10)
            count, sizes = bfs_components(graph.num_nodes, list(zip(
                graph.edge_from.tolist(), graph.edge_to.tolist())))
            components = weak_components(graph)
            assert (components.count, sorted(components.sizes)) == (count, sizes)


def test_a_shared_address_is_one_node_in_each_of_its_tokens():
    events = [make_event("0xa", "0xb", token="0x01", tx=1),
              make_event("0xb", "0xa", token="0x02", tx=2),
              make_event("0xb", "0xc", token="0x01", tx=3)]
    batch = batch_of(events)
    b, a, c = ("0x" + s.rjust(40, "0") for s in "bac")
    assert batch.nodes == [[a, b, c], [b, a]]
    graphs = build_graphs(batch, BlockWindow(FIRST, FIRST + WIDTH))
    assert [g.num_nodes for g in graphs.values()] == [3, 2]
    assert sum(g.num_nodes for g in graphs.values()) == len(
        {(e.token, a) for e in events for a in (e.from_addr, e.to_addr)})


def test_no_events_make_no_windows():
    assert list(iter_window_groups(iter([]), WIDTH)) == []
