from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tokengraphs.graphs import build_graphs, degree_stats, weak_components, write_edge_list

from conftest import WINDOW, make_event
from oracles import bfs_components


def graph_of(pairs, token="0x01", window=WINDOW, blocks=None):
    """Build a one-token graph from (from, to) address-stub pairs."""
    events = [
        make_event(src, dst, value=i + 1,
                   block=(blocks[i] if blocks else window.start + i), log_index=i,
                   token=token, tx=i + 1)
        for i, (src, dst) in enumerate(pairs)
    ]
    graphs = build_graphs(events, window)
    return graphs[events[0].token]


# --- construction -----------------------------------------------------------

def test_one_graph_per_token():
    events = [make_event("0xa", "0xb", token="0x01", tx=1),
              make_event("0xc", "0xd", token="0x02", tx=2)]
    graphs = build_graphs(events, WINDOW)
    assert len(graphs) == 2
    for graph in graphs.values():
        assert graph.num_nodes == 2 and graph.num_edges == 1


def test_parallel_transfers_become_parallel_edges():
    graph = graph_of([("0xa", "0xb"), ("0xa", "0xb")])
    assert graph.num_nodes == 2 and graph.num_edges == 2


def test_self_transfer_is_a_self_loop():
    graph = graph_of([("0xa", "0xa")])
    assert graph.num_nodes == 1 and graph.num_edges == 1
    assert graph.edge_from[0] == graph.edge_to[0]


def test_nodes_are_exactly_the_endpoints():
    graph = graph_of([("0xa", "0xb"), ("0xb", "0xc")])
    assert sorted(graph.nodes) == sorted(
        {"0x" + s.rjust(40, "0") for s in ("a", "b", "c")})


def test_edges_follow_block_logindex_order():
    events = [make_event("0xa", "0xb", value=1, block=18_000_005, log_index=1, tx=1),
              make_event("0xb", "0xc", value=2, block=18_000_001, log_index=2, tx=2),
              make_event("0xc", "0xa", value=3, block=18_000_005, log_index=0, tx=3)]
    graph = build_graphs(events, WINDOW)[events[0].token]
    assert graph.blocks.tolist() == [18_000_001, 18_000_005, 18_000_005]
    assert graph.values == [2, 3, 1]


# --- components -------------------------------------------------------------

def test_chain_is_one_component():
    comps = weak_components(graph_of([("0xa", "0xb"), ("0xb", "0xc")]))
    assert comps.count == 1 and comps.sizes == [3]


def test_two_pairs_are_two_components():
    comps = weak_components(graph_of([("0xa", "0xb"), ("0xc", "0xd")]))
    assert comps.count == 2 and sorted(comps.sizes) == [2, 2]


def test_direction_is_ignored():
    comps = weak_components(graph_of([("0xa", "0xb"), ("0xc", "0xb")]))
    assert comps.count == 1


def test_empty_graph_components_error():
    graph = graph_of([("0xa", "0xb")])
    graph.nodes = []
    with pytest.raises(ValueError):
        weak_components(graph)


def test_union_find_matches_bfs_on_seeded_random_multigraphs():
    rng = np.random.default_rng(1234)
    for _ in range(500):
        n = int(rng.integers(1, 51))
        m = int(rng.integers(0, 201))
        pairs = [(f"0x{a:x}", f"0x{b:x}")
                 for a, b in rng.integers(0, n, size=(m, 2)).tolist()]
        if not pairs:
            pairs = [("0x0", "0x0")]
        graph = graph_of(pairs)
        comps = weak_components(graph)
        count, sizes = bfs_components(
            graph.num_nodes,
            list(zip(graph.edge_from.tolist(), graph.edge_to.tolist())))
        assert comps.count == count
        assert sorted(comps.sizes) == sizes


@given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)),
                min_size=1, max_size=60))
def test_adding_edges_never_splits_components(pairs):
    token_pairs = [(f"0x{a:x}", f"0x{b:x}") for a, b in pairs]
    previous = None
    for upto in range(1, len(token_pairs) + 1):
        comps = weak_components(graph_of(token_pairs[:upto]))
        # node set may grow; component count can only drop when an edge joins
        # two existing components, and never by more than one per edge
        if previous is not None:
            assert comps.count >= previous - 1
        previous = comps.count


# --- degrees ----------------------------------------------------------------

def test_star_degrees():
    spokes = [("0xhub", f"0x{i:x}") for i in range(1, 6)]
    graph = graph_of(spokes)
    degs = degree_stats(graph)
    hub = "0x" + "hub".rjust(40, "0")
    assert degs.out_degree[hub] == 5 and degs.in_degree[hub] == 0
    assert all(degs.in_degree[n] == 1 for n in graph.nodes if n != hub)


def test_parallel_edges_count_with_multiplicity():
    degs = degree_stats(graph_of([("0xa", "0xb"), ("0xa", "0xb")]))
    a = "0x" + "a".rjust(40, "0")
    assert degs.out_degree[a] == 2


def test_self_loop_adds_one_to_each_side():
    degs = degree_stats(graph_of([("0xa", "0xa")]))
    a = "0x" + "a".rjust(40, "0")
    assert degs.in_degree[a] == 1 and degs.out_degree[a] == 1
    assert degs.degree(a) == 2


@given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)),
                min_size=1, max_size=100))
def test_handshake_sums_equal_edge_count(pairs):
    graph = graph_of([(f"0x{a:x}", f"0x{b:x}") for a, b in pairs])
    degs = degree_stats(graph)
    assert sum(degs.in_degree.values()) == graph.num_edges
    assert sum(degs.out_degree.values()) == graph.num_edges


def test_identical_input_builds_identical_graphs():
    events = [make_event("0xa", "0xb", block=18_000_000 + i, log_index=i, tx=i + 1)
              for i in range(20)]
    g1 = build_graphs(list(events), WINDOW)[events[0].token]
    g2 = build_graphs(list(events), WINDOW)[events[0].token]
    assert g1.nodes == g2.nodes
    assert g1.edge_from.tolist() == g2.edge_from.tolist()
    assert g1.values == g2.values


# --- export -----------------------------------------------------------------

def test_edge_list_export_format():
    graph = graph_of([("0xa", "0xb")], blocks=[18_000_042])
    out = io.StringIO()
    write_edge_list(graph, out)
    lines = out.getvalue().splitlines()
    assert lines[0] == f"# token={graph.token} window=18000000-18100000"
    src, dst, value, block = lines[1].split("\t")
    assert (src, dst) == (graph.nodes[0], graph.nodes[1])
    assert value == "1" and block == "18000042"
