from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tokengraphs.graphs import TokenGraph, build_graphs, weak_components, write_edge_list

from conftest import WINDOW, batch_of, make_event
from oracles import bfs_component_sizes, bfs_components, degree_stats


def graph_of(pairs, token="0x01", window=WINDOW, blocks=None):
    """Build a one-token graph from (from, to) address-stub pairs."""
    events = [
        make_event(src, dst, value=i + 1,
                   block=(blocks[i] if blocks else window.start + i), log_index=i,
                   token=token, tx=i + 1)
        for i, (src, dst) in enumerate(pairs)
    ]
    graphs = build_graphs(batch_of(events), window)
    return graphs[events[0].token]


# --- construction -----------------------------------------------------------

def test_one_graph_per_token():
    events = [make_event("0xa", "0xb", token="0x01", tx=1),
              make_event("0xc", "0xd", token="0x02", tx=2)]
    graphs = build_graphs(batch_of(events), WINDOW)
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
    assert sorted(graph.nodes.tolist()) == sorted(
        {b"0x" + s.rjust(40, b"0") for s in (b"a", b"b", b"c")})


def test_edges_follow_block_logindex_order():
    events = [make_event("0xa", "0xb", value=1, block=18_000_005, log_index=1, tx=1),
              make_event("0xb", "0xc", value=2, block=18_000_001, log_index=2, tx=2),
              make_event("0xc", "0xa", value=3, block=18_000_005, log_index=0, tx=3)]
    graph = build_graphs(batch_of(events), WINDOW)[events[0].token]
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


@st.composite
def shaped_graphs(draw):
    """(n, edges) over permuted node ids: paths, stars whose hub is the highest
    id of its part, random pieces, isolated nodes and self-loops."""
    n = draw(st.integers(1, 60))
    ids = draw(st.permutations(range(n)))
    edges = []
    cut = 0
    while cut < n:
        part = ids[cut:cut + draw(st.integers(1, n - cut))]
        cut += len(part)
        shape = draw(st.sampled_from(("path", "star", "random")))
        if shape == "path":
            edges += zip(part, part[1:])
        elif shape == "star":
            edges += [(max(part), v) for v in part if v != max(part)]
        else:
            edges += draw(st.lists(st.tuples(st.sampled_from(part),
                                             st.sampled_from(part)), max_size=2 * len(part)))
    edges += [(v, v) for v in draw(st.lists(st.integers(0, n - 1), max_size=4))]
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    edges = [(b, a) if flip else (a, b) for (a, b), flip in zip(edges, flips)]
    return n, draw(st.permutations(edges))


@given(shaped_graphs())
def test_weak_components_match_bfs_in_smallest_node_id_order(shaped):
    n, edges = shaped
    graph = TokenGraph("0x01", WINDOW, [b"0x%x" % i for i in range(n)],
                       np.array([a for a, _ in edges], dtype=np.int32),
                       np.array([b for _, b in edges], dtype=np.int32),
                       np.full(len(edges), WINDOW.start), np.ones(len(edges), np.uint64),
                       np.zeros(len(edges), np.uint64), {}, len(edges))
    comps = weak_components(graph)
    assert comps.sizes == bfs_component_sizes(n, edges)
    assert comps.count == len(comps.sizes)


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
    in_deg, out_deg = degree_stats(graph)
    hub = graph.nodes.tolist().index(b"0x" + b"hub".rjust(40, b"0"))
    assert out_deg[hub] == 5 and in_deg[hub] == 0
    assert all(in_deg[i] == 1 for i in range(graph.num_nodes) if i != hub)


def test_parallel_edges_count_with_multiplicity():
    graph = graph_of([("0xa", "0xb"), ("0xa", "0xb")])
    _, out_deg = degree_stats(graph)
    assert out_deg[graph.nodes.tolist().index(b"0x" + b"a".rjust(40, b"0"))] == 2


def test_self_loop_adds_one_to_each_side():
    in_deg, out_deg = degree_stats(graph_of([("0xa", "0xa")]))
    assert in_deg.tolist() == [1] and out_deg.tolist() == [1]
    assert (in_deg + out_deg).tolist() == [2]


@given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)),
                min_size=1, max_size=100))
def test_handshake_sums_equal_edge_count(pairs):
    graph = graph_of([(f"0x{a:x}", f"0x{b:x}") for a, b in pairs])
    in_deg, out_deg = degree_stats(graph)
    assert len(in_deg) == len(out_deg) == graph.num_nodes
    assert in_deg.sum() == graph.num_edges
    assert out_deg.sum() == graph.num_edges


def test_identical_input_builds_identical_graphs():
    events = [make_event("0xa", "0xb", block=18_000_000 + i, log_index=i, tx=i + 1)
              for i in range(20)]
    g1 = build_graphs(batch_of(events), WINDOW)[events[0].token]
    g2 = build_graphs(batch_of(events), WINDOW)[events[0].token]
    assert g1.nodes.dtype == g2.nodes.dtype == "S42"
    assert g1.nodes.tolist() == g2.nodes.tolist()
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
    assert (src, dst) == (graph.nodes[0].decode(), graph.nodes[1].decode())
    assert value == "1" and block == "18000042"
