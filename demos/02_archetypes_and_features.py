"""
The three transfer-graph shapes and their features
==================================================

Legitimate tokens grow one big interconnected component and stay active
across the whole window.  Two scam shapes look nothing like that: the
honeypot/rug-pull star (everything routed through one pool plus the null
address) and the address-poisoning spray (hundreds of 2-4 node scraps
sending dust).  The per-graph features make the difference measurable.
"""

import numpy as np

from tokengraphs.features import extract_features, feature_table
from tokengraphs.graphs import build_graphs, weak_components
from tokengraphs.ingest import BlockWindow
from tokengraphs.synth import ArchetypeConfig, generate

window = BlockWindow(18_000_000, 18_100_000)

configs = [
    ("legitimate",
     ArchetypeConfig(kind="legitimate", node_budget=2_000, window=window,
                     lifetime=90_000, seed=7)),
    ("honeypot star",
     ArchetypeConfig(kind="honeypot_star", node_budget=2_173, window=window,
                     lifetime=8_000, temporal_concentration=0.3, seed=7)),
    ("address poisoning",
     ArchetypeConfig(kind="counterfeit_poisoning", node_budget=900,
                     window=window, lifetime=6_000,
                     temporal_concentration=0.3, seed=7)),
]

rows = []
for name, cfg in configs:
    graph, = build_graphs(generate(cfg), window).values()
    comps = weak_components(graph)
    rows.append(extract_features(graph))
    fv = feature_table(rows)[-1]  # the row's cells by column name
    degree = (np.bincount(graph.edge_from, minlength=fv.num_nodes)
              + np.bincount(graph.edge_to, minlength=fv.num_nodes))
    hubs = (degree > 3).sum()
    print(f"{name} (label={cfg.label}):")
    print(f"  nodes={fv.num_nodes} edges={fv.num_edges} "
          f"components={fv.num_components} avg_comp_size={fv.avg_comp_size:.1f}")
    print(f"  lifetime={fv.lifetime} blocks, std_dev={fv.transfer_std_dev:.0f}, "
          f"density={fv.density:.5f}")
    print(f"  giant component share={max(comps.sizes) / fv.num_nodes:.0%}, "
          f"addresses with degree>3: {hubs}")
    print()

# the same numbers as histogram bins over the table's lifetime column
# (``features --histogram-out`` writes 20 bins for every feature)
counts, edges = np.histogram(feature_table(rows).lifetime.astype(float), bins=5)
print("lifetime histogram over the three graphs:")
for lo, hi, count in zip(edges, edges[1:], counts):
    print(f"  [{lo:>8.0f}, {hi:>8.0f}): {'#' * count}")
