"""Pinned sha256 digests of the CLI's outputs at small fixed seeds.

A change to the generators' RNG draw order, the fixture format, the feature
arithmetic or the edge-list writer changes one of these digests.  They were
recorded before the columnar fixture writer and window batches replaced the
per-transfer event path, which had to keep every byte.  The archetype
digests pin each generator on its own, including the paths no CLI run takes:
the budget floors, the default token address and an explicit edge multiplier.
The model digests pin the train-eval half (gradient descent, cv folds,
cross-window reports and the scan report); they were recorded before the
gradient-descent step became one preallocated kernel per fit.  The
``--histogram-out`` and ``--roc-out`` files were pinned before every CSV output
moved onto one writer.
"""

from __future__ import annotations

import hashlib
import os

import pytest

from tokengraphs.cli import main
from tokengraphs.ingest import BlockWindow
from tokengraphs.synth import (
    COUNTERFEIT_POISONING,
    HONEYPOT_STAR,
    LEGITIMATE,
    ArchetypeConfig,
    _fixture_lines,
    generate,
)

EXPECTED = {
    "training/fixture.tsv":
        "f3ee5b5fca19cda970fbfda19a83a03e30a75404381471d2b26c8eacf7781c97",
    "training/labels.csv":
        "1b006cf8f4c5573f9f171557a3e0fc91804d30bdc4e6f9bbef461d79220c02e5",
    "scan/fixture.tsv":
        "7bd292a69155fcdf560561d7e8dede262751a96ae2b5b07c2754a8fcf63eb645",
    "training.csv":
        "5e28cb313dd28340d8a83e678fa262ac92e52af741b8d2affc3aa31ed7bcc13a",
    "scan.csv":
        "8b59523b35e1fe2ab7bd4aae8b75539b0938d38833ab5a5946b4c05dd8aa1592",
    "graphs":
        "181d8b407424b2971bc80c061185a62262ce4e486a238d2e7f3072522f55fc28",
    "histogram.csv":
        "05d555ed6f93b978226a9f667c14843fd184837d00716dfeae4a5142809ce91d",
}


def _sha256(path) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _tree_digest(directory) -> str:
    """One digest over every file of ``directory``: its name and its bytes."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        digest.update(f"{name}\0{_sha256(os.path.join(directory, name))}\n".encode())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    assert main(["synth", "--out-dir", str(root / "training"), "--n-tokens", "8",
                 "--n-windows", "2", "--seed", "11"]) == 0
    assert main(["synth", "--out-dir", str(root / "scan"), "--kind", "scan",
                 "--n-tokens", "8", "--seed", "11"]) == 0
    assert main(["features", "--fixture", str(root / "training" / "fixture.tsv"),
                 "--out", str(root / "training.csv"),
                 "--export-graphs", str(root / "graphs"),
                 "--histogram-out", str(root / "histogram.csv")]) == 0
    assert main(["features", "--fixture", str(root / "scan" / "fixture.tsv"),
                 "--out", str(root / "scan.csv"),
                 "--export-graphs", str(root / "graphs")]) == 0
    return root


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_output_digest_is_pinned(outputs, name):
    path = outputs / name
    actual = _tree_digest(path) if path.is_dir() else _sha256(path)
    assert actual == EXPECTED[name]


# (config fields, digest over the fixture lines of seeds 0-9); every token
# address is the default one, since no case sets ``token``
ARCHETYPES = {
    "legitimate": (
        dict(kind=LEGITIMATE, node_budget=120, lifetime=90_000),
        "c4aa77aa3f2697a6533a605a4be855cae4eb1ece1ef56ef6ee87a785c1cc8d4e"),
    "legitimate_floor": (
        dict(kind=LEGITIMATE, node_budget=20, lifetime=80_000),
        "93e58754a404eda5af874c7cf27e22f53231eedfd117932bef8cc6ee696e3690"),
    "honeypot_star": (
        dict(kind=HONEYPOT_STAR, node_budget=120, lifetime=8_000,
             temporal_concentration=0.4, value_scale=1e15),
        "de286e6fb40f7aab0e9e56fb01b0128b77edba94d8dca06ec7e7e2646c1534c4"),
    "honeypot_star_floor": (
        dict(kind=HONEYPOT_STAR, node_budget=10, lifetime=9_999),
        "e83426a3365285e932795240c0617449262d72c9db77551be8fd732e2b38f28a"),
    "honeypot_star_multiplier": (
        dict(kind=HONEYPOT_STAR, node_budget=120, lifetime=6_000, edge_multiplier=1.9),
        "a35e9b943c3a28bc0a1e85763c336efb32487c158004871d3d7baa3917e32c89"),
    "counterfeit_poisoning": (
        dict(kind=COUNTERFEIT_POISONING, node_budget=120, lifetime=8_000,
             temporal_concentration=0.4),
        "cb4b76298f904a1ef4b48ec4a2e1745a53b591788ca58631b76d3aa5602fda81"),
    "counterfeit_poisoning_floor": (
        dict(kind=COUNTERFEIT_POISONING, node_budget=6, lifetime=0),
        "1403aa686dbf91f3e062e4cdc8c1a0fc19bb2bca52471b1662f39dd7f82317e8"),
    "counterfeit_poisoning_multiplier": (
        dict(kind=COUNTERFEIT_POISONING, node_budget=120, lifetime=6_000,
             edge_multiplier=1.7),
        "248ae476517241785279ae3972f017afeab3c79bf5fd62f6139b180287e5ac1d"),
}


@pytest.mark.parametrize("name", sorted(ARCHETYPES))
def test_archetype_digest_is_pinned(name):
    fields, expected = ARCHETYPES[name]
    digest = hashlib.sha256()
    for seed in range(10):
        cfg = ArchetypeConfig(window=BlockWindow(18_000_000, 18_100_000), seed=seed,
                              **fields)
        digest.update("".join(map("%s\n".__mod__, _fixture_lines(generate(cfg)))).encode())
    assert digest.hexdigest() == expected


MODEL_EXPECTED = {
    "full.txt":
        "3e7d455a0f37b80fa3528ebf93bf8155cc7316d6e3fe595a4c2e1711b194f291",
    "reduced.txt":
        "677bb1f6fece40f1768eb92b8490cd60db31f1c2d82d67f88f61471564beb0b9",
    "cv.csv":
        "519a470b4d5f8b133823a40209e76b5238f7ffe751ace60c311b44c5633502d9",
    "crosseval.csv":
        "024c0d3d7cc025bb0d7170d58fde5e66274c10ec49f3b617c22a21b77e907602",
    "scan_report.csv":
        "5d85f99c2b5e45570c3ea50e9c682491a89fb99c7af6bd91d305574f83d15d7c",
    "cv_roc_fold-1.csv":
        "a1df6a0baa719bd91535607654b3f6b7cbe19bfaae43339b6ae5303a8abf2058",
    "cv_roc_fold-2.csv":
        "a1df6a0baa719bd91535607654b3f6b7cbe19bfaae43339b6ae5303a8abf2058",
    "cv_roc_fold-3.csv":
        "a1df6a0baa719bd91535607654b3f6b7cbe19bfaae43339b6ae5303a8abf2058",
    "cv_roc_fold-4.csv":
        "280d3c424753deaa83e4ef906e90da145ad15891f8a1909e583ced6ffe75bf4a",
    "cv_roc_fold-5.csv":
        "a769ccf60ac4b51227fc95606982e4c705f4a5483d76071c86a094ca46c19728",
    "crosseval_roc_w2.csv.csv":
        "1b81b8ea925bbb563e25d2e0dee5a07874a3565566758af5f34e1935992fb8ea",
    "crosseval_roc_w3.csv.csv":
        "1b81b8ea925bbb563e25d2e0dee5a07874a3565566758af5f34e1935992fb8ea",
}


@pytest.fixture(scope="module")
def model_outputs(tmp_path_factory):
    """Train, cv, crosseval over two held-out windows and scan, on small
    tables with ``--min-nodes 0`` so both classes stay in every fit."""
    root = tmp_path_factory.mktemp("golden_model")
    corpora = {"w1": ("24", "3", "18000000"), "w2": ("12", "4", "18100000"),
               "w3": ("12", "5", "18200000")}
    for name, (n_tokens, seed, start) in corpora.items():
        assert main(["synth", "--out-dir", str(root / name), "--n-tokens", n_tokens,
                     "--seed", seed, "--window-start", start]) == 0
    assert main(["synth", "--out-dir", str(root / "scan"), "--kind", "scan",
                 "--n-tokens", "16", "--seed", "3"]) == 0
    for name in (*corpora, "scan"):
        assert main(["features", "--fixture", str(root / name / "fixture.tsv"),
                     "--out", str(root / f"{name}.csv")]) == 0
    w1 = ["--features", str(root / "w1.csv"), "--labels", str(root / "w1" / "labels.csv"),
          "--min-nodes", "0"]
    assert main(["train", *w1, "--model-out", str(root / "full.txt")]) == 0
    assert main(["train", *w1, "--variant", "reduced",
                 "--model-out", str(root / "reduced.txt")]) == 0
    assert main(["cv", *w1, "--out", str(root / "cv.csv"),
                 "--roc-out", str(root / "cv_roc")]) == 0
    assert main(["crosseval", "--train-features", str(root / "w1.csv"),
                 "--train-labels", str(root / "w1" / "labels.csv"), "--min-nodes", "0",
                 "--eval", str(root / "w2.csv"), str(root / "w2" / "labels.csv"),
                 "--eval", str(root / "w3.csv"), str(root / "w3" / "labels.csv"),
                 "--out", str(root / "crosseval.csv"),
                 "--roc-out", str(root / "crosseval_roc")]) == 0
    assert main(["scan", "--model", str(root / "reduced.txt"),
                 "--features", str(root / "scan.csv"),
                 "--out", str(root / "scan_report.csv")]) == 0
    return root


@pytest.mark.parametrize("name", sorted(MODEL_EXPECTED))
def test_model_output_digest_is_pinned(model_outputs, name):
    assert _sha256(model_outputs / name) == MODEL_EXPECTED[name]
