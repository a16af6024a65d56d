"""
Training and evaluating the classifier
======================================

Generate a labeled corpus (two windows of 150 tokens at a 35% scam mix),
run stratified 5-fold cross-validation inside the first window, then test
how the frozen model carries over to the second window.
"""

import tempfile
from pathlib import Path

from tokengraphs.dataset import join, load_labels
from tokengraphs.evaluation import cross_window_eval, kfold_cv
from tokengraphs.features import extract_features, feature_table
from tokengraphs.graphs import build_graphs
from tokengraphs.ingest import BlockWindow, iter_window_groups
from tokengraphs.synth import gen_corpus

workdir = Path(tempfile.mkdtemp(prefix="tokengraphs_demo_"))
windows = [BlockWindow(18_000_000, 18_100_000),
           BlockWindow(18_100_000, 18_200_000)]

corpus = gen_corpus(150, 0.35, windows, workdir / "fixture.tsv",
                    workdir / "labels.csv", seed=11)
print(f"corpus: {corpus['total_events']:,} transfers, "
      f"{corpus['scam_tokens_per_window']} scam tokens per window")

labels = load_labels(workdir / "labels.csv")
datasets = []
for window, batch in iter_window_groups(workdir / "fixture.tsv"):
    rows = [extract_features(g) for g in build_graphs(batch, window).values()]
    datasets.append(join(feature_table(rows), labels, min_nodes=500))

# pooled over (token, window) rows, and once per token: a token is a scam if
# any of its rows is
rows = [(token, label) for dataset in datasets
        for token, label in zip(dataset.table.token, dataset.labels.tolist())]
token_flag = {}
for token, label in rows:
    token_flag[token] = max(token_flag.get(token, 0), label)
pooled = sum(label for _token, label in rows) / len(rows)
unique = sum(token_flag.values()) / len(token_flag)
print(f"rows={len(rows)} pooled scam share={pooled:.1%} "
      f"unique-token share={unique:.1%} "
      f"(legitimate tokens recur, scams do not)\n")

report = kfold_cv(datasets[0], k=5, seed=0, variant="full")
print("5-fold cross-validation on window 1:")
for fold in report.breakdown:
    c = fold.counts
    print(f"  {fold.label}: acc={fold.accuracy:.3f} prec={fold.precision:.3f} "
          f"rec={fold.recall:.3f} (tp={c.tp} fp={c.fp} fn={c.fn} tn={c.tn})")
print(f"  mean: acc={report.accuracy:.3f} f1={report.f1:.3f} auc={report.auc:.3f}\n")

model, window_reports = cross_window_eval(datasets[0], datasets[1:], variant="full")
for row in window_reports:
    print(f"frozen model on the next window: acc={row.accuracy:.3f} "
          f"f1={row.f1:.3f} auc={row.auc:.3f}")
print("\ncoefficients (standardized features):")
for name, coef in zip(model.feature_names, model.coefficients):
    print(f"  {name:>18s}: {coef:+.3f}")
print(f"\nartifacts in {workdir}")
