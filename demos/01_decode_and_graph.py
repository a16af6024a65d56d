"""
From raw event logs to a transfer graph
=======================================

Decode a handful of raw logs the way an Ethereum node would return them,
drop the ones that are not fungible-token transfers, and look at the
resulting per-token multigraph.
"""

import numpy as np

from tokengraphs.graphs import build_graphs, weak_components
from tokengraphs.ingest import TRANSFER_TOPIC, decode_logs, partition_windows

print(f"Transfer topic0: {TRANSFER_TOPIC}")

# three raw logs: two fungible transfers and one NFT transfer (the NFT
# standard indexes the token id as a fourth topic and carries no data)
def topic(addr_suffix):
    return "0x" + "0" * 24 + addr_suffix.rjust(40, "0")

raw = [
    {"address": "0x" + "a1".rjust(40, "0"),
     "topics": [TRANSFER_TOPIC, topic("b1"), topic("c1")],
     "data": "0x" + format(1_500_000, "064x"),
     "blockNumber": hex(18_000_010), "transactionHash": "0x" + "01" * 32,
     "logIndex": "0x0"},
    {"address": "0x" + "a1".rjust(40, "0"),
     "topics": [TRANSFER_TOPIC, topic("c1"), topic("d1")],
     "data": "0x" + format(9_000, "064x"),
     "blockNumber": hex(18_000_025), "transactionHash": "0x" + "02" * 32,
     "logIndex": "0x3"},
    {"address": "0x" + "ee".rjust(40, "0"),  # NFT: filtered out
     "topics": [TRANSFER_TOPIC, topic("b1"), topic("c1"),
                "0x" + format(7, "064x")],
     "data": "0x",
     "blockNumber": hex(18_000_030), "transactionHash": "0x" + "03" * 32,
     "logIndex": "0x1"},
]

events = list(decode_logs(raw))
print(f"decoded {len(events)} transfers (the NFT-shaped log was dropped)")
for event in events:
    print(f"  {event.from_addr[-6:]} -> {event.to_addr[-6:]} "
          f"value={event.value} block={event.block}")

# group into 100K-block windows, each one batch of interned columns, and
# build one graph per token
for window, batch in partition_windows(events).items():
    for token, graph in build_graphs(batch, window).items():
        comps = weak_components(graph)
        # degree of each node id, counting parallel edges; a self-loop counts twice
        degree = (np.bincount(graph.edge_from, minlength=graph.num_nodes)
                  + np.bincount(graph.edge_to, minlength=graph.num_nodes))
        print(f"\ntoken {token[-6:]} in window {window}:")
        print(f"  {graph.num_nodes} nodes, {graph.num_edges} edges, "
              f"{comps.count} weak component(s)")
        busiest = int(degree.argmax())
        print(f"  busiest address {graph.nodes[busiest][-6:].decode()} "
              f"has degree {degree[busiest]}")
