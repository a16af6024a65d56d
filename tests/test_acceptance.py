"""End-to-end acceptance criteria.

Each test prints one `[ACCEPTANCE] ... PASS/FAIL` line (run with ``-s`` to
see them on passing runs) and enforces its runtime budget.  The expensive
synthetic corpora are built once per session and shared where the criteria
allow it.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import subprocess
import sys
import time

import numpy as np
import pytest

from tokengraphs.cli import main as cli_main
from tokengraphs.dataset import join, load_labels
from tokengraphs.evaluation import (ConfusionCounts, kfold_cv, metrics,
                                    roc_auc, cross_window_eval, unlabeled_scan)
from tokengraphs.features import extract_features, feature_table
from tokengraphs.graphs import build_graphs, weak_components
from tokengraphs.ingest import (BlockWindow, decode_logs,
                                is_erc20_transfer, iter_window_groups,
                                read_fixture)
from tokengraphs.model import _objective, train
from tokengraphs.synth import gen_corpus, gen_scan_corpus

from conftest import batch_of, feature_row, make_event
from oracles import (bfs_components, finite_diff_gradient, pairwise_auc,
                     straight_line_features)

HERE = os.path.dirname(__file__)
WINDOW = BlockWindow(18_000_000, 18_100_000)

_cache: dict = {}


@contextlib.contextmanager
def criterion(number: int, description: str, budget_seconds: float | None):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - started
        print(f"\n[ACCEPTANCE] {number}. {description}: FAIL ({elapsed:.1f}s)")
        raise
    elapsed = time.perf_counter() - started
    print(f"\n[ACCEPTANCE] {number}. {description}: PASS ({elapsed:.1f}s)")
    if budget_seconds is not None:
        assert elapsed < budget_seconds, (
            f"criterion {number} took {elapsed:.1f}s, budget {budget_seconds}s")


def pipeline_features(fixture_path):
    """(window, feature table) for each window of a fixture."""
    tables = []
    for window, events in iter_window_groups(fixture_path, 100_000):
        tables.append((window, feature_table([extract_features(g) for g in
                                              build_graphs(events, window).values()])))
    return tables


def training_corpus(tmp_factory):
    """926 tokens, one window, first-window class mix; shared by 6 and 8."""
    if "train" not in _cache:
        base = tmp_factory.mktemp("corpus926")
        fixture = base / "fixture.tsv"
        labels_path = base / "labels.csv"
        manifest = gen_corpus(926, 0.353, [WINDOW], fixture, labels_path, seed=2026)
        (window, table), = pipeline_features(fixture)
        dataset = join(table, load_labels(labels_path), 500)
        _cache["train"] = (dataset, manifest)
    return _cache["train"]


def cv_accuracy_full(tmp_factory) -> float:
    if "cv_full" not in _cache:
        dataset, _ = training_corpus(tmp_factory)
        _cache["cv_full"] = kfold_cv(dataset, k=5, seed=0, variant="full")
    return _cache["cv_full"].accuracy


# --- 1. parsing golden suite --------------------------------------------------

def test_criterion_1_parsing_golden_suite():
    with criterion(1, "parsing golden suite (decoys rejected)", 1.0):
        with open(os.path.join(HERE, "data", "raw_logs_golden.jsonl")) as fh:
            logs = [json.loads(line) for line in fh]
        expected = sorted(read_fixture(
            os.path.join(HERE, "data", "raw_logs_golden_expected.tsv")))
        decoded = sorted(decode_logs(logs))
        assert decoded == expected, "decoded set differs from the frozen expectation"
        decoy_count = len(logs) - len(expected)
        assert decoy_count == 9
        assert len(decoded) == len(expected)


# --- 2. component oracle --------------------------------------------------------

def test_criterion_2_component_oracle():
    with criterion(2, "union-find equals BFS oracle on 500 random multigraphs", 5.0):
        rng = np.random.default_rng(20_2026)
        for _ in range(500):
            n = int(rng.integers(1, 51))
            m = int(rng.integers(1, 201))
            events = [
                make_event(f"0x{a:x}", f"0x{b:x}", value=1,
                           block=WINDOW.start + i, log_index=i, tx=i + 1)
                for i, (a, b) in enumerate(rng.integers(0, n, size=(m, 2)).tolist())
            ]
            graph = build_graphs(batch_of(events), WINDOW)[events[0].token]
            summary = weak_components(graph)
            count, sizes = bfs_components(
                graph.num_nodes,
                list(zip(graph.edge_from.tolist(), graph.edge_to.tolist())))
            assert summary.count == count
            assert sorted(summary.sizes) == sizes


# --- 3. feature oracle ------------------------------------------------------------

def test_criterion_3_feature_oracle():
    with criterion(3, "feature definitions match straight-line oracle", 5.0):
        events = [make_event("0xa", "0xb", value=10, block=18_000_100, log_index=0, tx=1),
                  make_event("0xb", "0xc", value=5, block=18_000_150, log_index=1, tx=2),
                  make_event("0xa", "0xc", value=7, block=18_000_200, log_index=2, tx=3)]
        fv = feature_row(build_graphs(batch_of(events), WINDOW)[events[0].token])
        assert fv.density == pytest.approx(0.5, abs=1e-10)
        assert fv.lifetime == 100
        assert fv.transfer_std_dev == pytest.approx(40.8248, abs=1e-4)
        assert fv.transfer_std_dev == pytest.approx(40.824829046386306, abs=1e-10)
        assert fv.amount == 22

        rng = np.random.default_rng(30_2026)
        for _ in range(50):
            n = int(rng.integers(2, 45))
            m = int(rng.integers(1, 150))
            raw = list(zip(rng.integers(0, n, size=m).tolist(),
                           rng.integers(0, n, size=m).tolist(),
                           rng.integers(0, 10 ** 14, size=m).tolist(),
                           rng.integers(0, 99_999, size=m).tolist()))
            events = [make_event(f"0x{a:x}", f"0x{b:x}", value=v,
                                 block=WINDOW.start + blk, log_index=i, tx=i + 1)
                      for i, (a, b, v, blk) in enumerate(raw)]
            graph = build_graphs(batch_of(events), WINDOW)[events[0].token]
            fv = feature_row(graph)
            oracle = straight_line_features([
                (e.from_addr, e.to_addr, e.value, e.block) for e in events])
            assert fv.amount == oracle["amount"]
            for name in ("num_nodes", "num_edges", "num_components", "lifetime"):
                assert getattr(fv, name) == oracle[name]
            for name in ("density", "avg_comp_size", "transfer_std_dev"):
                assert getattr(fv, name) == pytest.approx(oracle[name],
                                                       abs=1e-10, rel=1e-10)


# --- 4. gradient check ---------------------------------------------------------------

def test_criterion_4_gradient_check():
    with criterion(4, "analytic gradient vs central differences", 5.0):
        rng = np.random.default_rng(40_2026)
        worst = 0.0
        for _ in range(20):
            matrix = rng.normal(size=(50, 8))
            labels = (rng.random(50) < rng.uniform(0.2, 0.8)).astype(float)
            params = rng.normal(size=9)
            lam = float(rng.uniform(0.0, 3.0))
            _, grad = _objective(matrix, labels, lam)(params)
            numeric = finite_diff_gradient(
                lambda p: _objective(matrix, labels, lam)(p)[0],
                params, h=1e-6)
            rel = float(np.max(np.abs(grad - numeric)
                               / np.maximum(np.abs(numeric), 1e-10)))
            worst = max(worst, rel)
        assert worst < 1e-6, f"worst relative gradient error {worst:.2e}"


# --- 5. metrics / AUC oracle -----------------------------------------------------------

def test_criterion_5_metrics_and_auc_oracle():
    with criterion(5, "confusion metrics exact; AUC equals pairwise oracle", 5.0):
        accuracy, precision, recall, f1 = metrics(ConfusionCounts(5, 1, 3, 11))
        assert accuracy == pytest.approx(0.8, abs=1e-15)
        assert precision == pytest.approx(5 / 6, abs=1e-15)
        assert recall == pytest.approx(0.625, abs=1e-15)
        assert f1 == pytest.approx(5 / 7, abs=1e-15)
        assert metrics(ConfusionCounts(0, 0, 4, 6))[1:] == (0.0, 0.0, 0.0)
        assert metrics(ConfusionCounts(7, 0, 0, 3)) == (1.0, 1.0, 1.0, 1.0)

        rng = np.random.default_rng(50_2026)
        for _ in range(100):
            n = int(rng.integers(4, 40))
            scores = (rng.integers(0, 9, size=n) / 8.0).tolist()
            truth = (rng.random(n) < 0.5).astype(int).tolist()
            if sum(truth) in (0, n):
                truth[0] = 1 - truth[0]
            _, auc = roc_auc(scores, truth)
            assert abs(auc - pairwise_auc(scores, truth)) < 1e-12


# --- 6. end-to-end synthetic classification ----------------------------------------------

def test_criterion_6_synthetic_classification(tmp_path_factory):
    with criterion(6, "926-token corpus, 5-fold CV: accuracy >= 0.85, AUC >= 0.86", 60.0):
        dataset, manifest = training_corpus(tmp_path_factory)
        assert manifest["scam_tokens_per_window"] == 327
        assert len(dataset) == 926
        assert sum(dataset.labels) == 327
        report = kfold_cv(dataset, k=5, seed=0, variant="full")
        _cache["cv_full"] = report
        print(f"\n  cv accuracy={report.accuracy:.4f} auc={report.auc:.4f} "
              f"precision={report.precision:.4f} recall={report.recall:.4f}")
        assert report.accuracy >= 0.85
        assert report.auc >= 0.86


# --- 7. cross-window generalization --------------------------------------------------------

def test_criterion_7_cross_window(tmp_path_factory):
    with criterion(7, "cross-window accuracy within 5 points of CV", 120.0):
        reference = cv_accuracy_full(tmp_path_factory)
        base = tmp_path_factory.mktemp("crosswin")
        windows = [BlockWindow(18_000_000 + i * 100_000,
                               18_100_000 + i * 100_000) for i in range(5)]
        fixture = base / "fixture.tsv"
        labels_path = base / "labels.csv"
        gen_corpus(926, 0.353, windows, fixture, labels_path, seed=777)
        labels = load_labels(labels_path)
        datasets = [join(table, labels, 500) for _w, table in pipeline_features(fixture)]
        assert len(datasets) == 5
        model, reports = cross_window_eval(datasets[0], datasets[1:],
                                           variant="full")
        for report in reports:
            print(f"\n  {report.label}: accuracy={report.accuracy:.4f}")
            assert abs(report.accuracy - reference) <= 0.05


# --- 8. reduced-variant behavior ------------------------------------------------------------

def test_criterion_8_reduced_variant(tmp_path_factory):
    with criterion(8, "reduced model parity and lifetime ablation", None):
        dataset, _ = training_corpus(tmp_path_factory)
        full_accuracy = cv_accuracy_full(tmp_path_factory)
        reduced_report = kfold_cv(dataset, k=5, seed=0, variant="reduced")
        print(f"\n  full cv accuracy={full_accuracy:.4f} "
              f"reduced={reduced_report.accuracy:.4f}")
        assert reduced_report.accuracy >= full_accuracy - 0.04

        base = tmp_path_factory.mktemp("scan")
        scan_fixture = base / "scan.tsv"
        gen_scan_corpus(400, WINDOW, scan_fixture, seed=4242)
        (_w, scan_table), = pipeline_features(scan_fixture)
        assert all(fv.num_nodes <= 500 for fv in scan_table)

        reduced_model = train(dataset, variant="reduced")
        no_lifetime_model = train(dataset, variant="reduced-no-lifetime")
        with_lifetime = unlabeled_scan(reduced_model, scan_table)
        without_lifetime = unlabeled_scan(no_lifetime_model, scan_table)
        young_with = with_lifetime.share_lifetime_under_1000
        young_without = without_lifetime.share_lifetime_under_1000
        print(f"  young-graph scam rate: with lifetime={young_with:.3f}, "
              f"without={young_without:.3f} "
              f"(overall {with_lifetime.scam_share:.3f} -> "
              f"{without_lifetime.scam_share:.3f})")
        assert young_with >= 0.90
        assert young_with - young_without >= 0.40


# --- 9. throughput ----------------------------------------------------------------------------

def test_criterion_9_throughput(tmp_path_factory):
    base = tmp_path_factory.mktemp("throughput")
    fixture = base / "million.tsv"
    manifest = gen_corpus(1_250, 0.353, [WINDOW], fixture, base / "labels.csv",
                          seed=99)
    assert manifest["total_events"] >= 1_000_000
    with criterion(9, f"{manifest['total_events']:,} transfers through "
                      "ingest+graphs+features in <60s, <2GB", 60.0):
        out = base / "features.csv"
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "tokengraphs.cli", "features",
             "--fixture", str(fixture), "--out", str(out)],
            capture_output=True, text=True)
        elapsed = time.perf_counter() - started
        assert proc.returncode == 0, proc.stderr
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        print(f"\n  {manifest['total_events']:,} transfers in {elapsed:.1f}s, "
              f"peak rss {peak_kb / 1e6:.2f} GB")
        assert elapsed < 60.0
        assert peak_kb < 2_000_000  # ru_maxrss is in KB on linux
        with open(out) as fh:
            assert sum(1 for _ in fh) == 1_251  # header + one row per token


# --- 10. determinism ----------------------------------------------------------------------------

def test_criterion_10_manifest_replay_determinism(tmp_path_factory):
    with criterion(10, "manifest replays reproduce byte-identical outputs", None):
        base = tmp_path_factory.mktemp("replay")
        first = base / "corpus"
        assert cli_main(["synth", "--out-dir", str(first), "--n-tokens", "80",
                         "--scam-fraction", "0.35", "--seed", "1312"]) == 0
        second = base / "corpus_replayed"
        assert cli_main(["replay", str(first / "manifest.json"),
                         "--set", f"out_dir={second}"]) == 0
        for name in ("fixture.tsv", "labels.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

        features = base / "features.csv"
        assert cli_main(["features", "--fixture", str(first / "fixture.tsv"),
                         "--out", str(features)]) == 0
        snapshot = features.read_bytes()
        assert cli_main(["replay", str(features) + ".manifest.json"]) == 0
        assert features.read_bytes() == snapshot

        cv_report = base / "cv.csv"
        assert cli_main(["cv", "--features", str(features),
                         "--labels", str(first / "labels.csv"),
                         "--out", str(cv_report), "--seed", "5"]) == 0
        cv_snapshot = cv_report.read_bytes()
        assert cli_main(["replay", str(cv_report) + ".manifest.json"]) == 0
        assert cv_report.read_bytes() == cv_snapshot

        model_path = base / "model.txt"
        assert cli_main(["train", "--features", str(features),
                         "--labels", str(first / "labels.csv"),
                         "--model-out", str(model_path),
                         "--variant", "reduced"]) == 0
        model_snapshot = model_path.read_bytes()
        assert cli_main(["replay", str(model_path) + ".manifest.json"]) == 0
        assert model_path.read_bytes() == model_snapshot

        scan_report = base / "scan.csv"
        assert cli_main(["scan", "--model", str(model_path),
                         "--features", str(features),
                         "--out", str(scan_report)]) == 0
        scan_snapshot = scan_report.read_bytes()
        assert cli_main(["replay", str(scan_report) + ".manifest.json"]) == 0
        assert scan_report.read_bytes() == scan_snapshot
