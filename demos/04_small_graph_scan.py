"""
Scanning the small graphs nobody labeled
========================================

Graphs with 500 nodes or fewer have no ground truth, but a model stripped
of the size-dependent features (node/edge/component counts, replaced by
edges-per-component) can still score them.  The catch: young tokens look
temporally identical to scams.  Retraining without the lifetime feature
shows how much of the model's verdict rides on it.
"""

import tempfile
from pathlib import Path

from tokengraphs.dataset import join, load_labels
from tokengraphs.evaluation import unlabeled_scan
from tokengraphs.features import extract_features, feature_table
from tokengraphs.graphs import build_graphs
from tokengraphs.ingest import BlockWindow, iter_window_groups
from tokengraphs.model import train
from tokengraphs.synth import gen_corpus, gen_scan_corpus

workdir = Path(tempfile.mkdtemp(prefix="tokengraphs_scan_"))
window = BlockWindow(18_000_000, 18_100_000)

# labeled training corpus of big graphs
gen_corpus(300, 0.353, [window], workdir / "train.tsv", workdir / "labels.csv",
           seed=21)
labels = load_labels(workdir / "labels.csv")
(win, batch), = iter_window_groups(workdir / "train.tsv")
rows = [extract_features(g) for g in build_graphs(batch, win).values()]
dataset = join(feature_table(rows), labels, min_nodes=500)
print(f"training rows: {len(dataset)} ({sum(dataset.labels)} suspicious)")

# unlabeled small graphs: young tokens, small veterans, small scams
gen_scan_corpus(300, window, workdir / "scan.tsv", seed=22)
rows = []
for win, batch in iter_window_groups(workdir / "scan.tsv"):
    rows.extend(extract_features(g) for g in build_graphs(batch, win).values())
small = feature_table(rows)
print(f"scan corpus: {len(small)} graphs, all at or under 500 nodes\n")

for variant in ("reduced", "reduced-no-lifetime"):
    model = train(dataset, variant=variant)
    report = unlabeled_scan(model, small)
    print(f"{variant} model:")
    print(f"  predicted scams: {report.predicted_scam}/{report.total} "
          f"({report.scam_share:.1%})")
    print(f"  among graphs with >100 nodes:      {report.share_over_100_nodes:.1%}")
    print(f"  among graphs living <1000 blocks:  {report.share_lifetime_under_1000:.1%}")
    print()

print("with lifetime in the model, nearly every short-lived graph is flagged;")
print("without it, the structural and value features take over and the rate")
print("collapses - lifetime is the dominant, but not the only, discriminator.")
