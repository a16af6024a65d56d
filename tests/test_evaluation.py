from __future__ import annotations

import functools
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tokengraphs.evaluation as evaluation_mod

from tokengraphs.dataset import LabeledDataset
from tokengraphs.evaluation import (
    ConfusionCounts,
    EvalReport,
    LeakageError,
    ScanReport,
    UndefinedAUCError,
    VariantMismatchError,
    confusion,
    cross_window_eval,
    evaluate_model,
    kfold_cv,
    metrics,
    roc_auc,
    stratified_folds,
    unlabeled_scan,
    write_report,
    write_roc,
    write_scan_report,
)
from tokengraphs.features import feature_table
from tokengraphs.ingest import BlockWindow
from tokengraphs.model import SCAM_THRESHOLD, predict_proba, train

from oracles import loop_confusion, loop_roc_auc, loop_stratified_folds, pairwise_auc
from test_model import toy_dataset, _vector

WINDOW = BlockWindow(18_000_000, 18_100_000)


# --- confusion metrics ----------------------------------------------------------

def test_hand_case_metrics():
    counts = ConfusionCounts(tp=5, fp=1, fn=3, tn=11)
    accuracy, precision, recall, f1 = metrics(counts)
    assert accuracy == pytest.approx(0.8)
    assert precision == pytest.approx(5 / 6)
    assert recall == pytest.approx(0.625)
    assert f1 == pytest.approx(5 / 7, abs=5e-5)  # 0.7142857...


def test_no_predicted_positives_uses_zero_conventions():
    accuracy, precision, recall, f1 = metrics(ConfusionCounts(tp=0, fp=0, fn=4, tn=6))
    assert (precision, recall, f1) == (0.0, 0.0, 0.0)
    assert accuracy == pytest.approx(0.6)


def test_all_correct_is_all_ones():
    assert metrics(ConfusionCounts(tp=4, fp=0, fn=0, tn=6)) == (1.0, 1.0, 1.0, 1.0)


def test_zero_rows_is_an_error():
    with pytest.raises(ValueError):
        metrics(ConfusionCounts())


def test_confusion_matches_definitions():
    counts = confusion([1, 1, 0, 0, 1], [1, 0, 1, 0, 1])
    assert (counts.tp, counts.fp, counts.fn, counts.tn) == (2, 1, 1, 1)
    assert counts.total == 5


# --- roc / auc --------------------------------------------------------------------

def test_perfect_separation_is_auc_one():
    _, auc = roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
    assert auc == pytest.approx(1.0)


def test_all_tied_scores_is_auc_half():
    points, auc = roc_auc([0.5] * 6, [1, 0, 1, 0, 1, 0])
    assert auc == pytest.approx(0.5)
    assert points == [(0.0, 0.0), (1.0, 1.0)]


def test_single_class_truth_is_undefined():
    with pytest.raises(UndefinedAUCError):
        roc_auc([0.1, 0.9], [1, 1])


def test_roc_endpoints_and_monotonicity():
    rng = np.random.default_rng(0)
    scores = rng.random(50).round(1).tolist()  # heavy ties
    truth = (rng.random(50) < 0.4).astype(int).tolist()
    points, _ = roc_auc(scores, truth)
    assert points[0] == (0.0, 0.0) and points[-1] == (1.0, 1.0)
    for (fpr0, tpr0), (fpr1, tpr1) in zip(points, points[1:]):
        assert fpr1 >= fpr0 and tpr1 >= tpr0


def test_trapezoid_equals_pairwise_oracle_with_ties():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(5, 31))
        scores = (rng.integers(0, 7, size=n) / 6.0).tolist()  # many exact ties
        truth = (rng.random(n) < 0.5).astype(int).tolist()
        if sum(truth) in (0, n):
            truth[0] = 1 - truth[0]
        _, auc = roc_auc(scores, truth)
        assert auc == pytest.approx(pairwise_auc(scores, truth), abs=1e-12)


@st.composite
def scored_rows(draw):
    """Scores with truth labels of both classes.  Scores come from a small
    pool, so ties are common; a one-score pool puts every row in one group."""
    n = draw(st.integers(2, 60))
    pool = draw(st.one_of(
        st.just([SCAM_THRESHOLD]),
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
        st.lists(st.floats(allow_nan=False), min_size=1, max_size=n)))
    scores = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    n_pos = draw(st.integers(1, n - 1))
    truth = draw(st.permutations([1] * n_pos + [0] * (n - n_pos)))
    return scores, truth


@settings(max_examples=300, deadline=None)
@given(scored_rows())
def test_roc_and_confusion_equal_the_loop_references(rows):
    scores, truth = rows
    points, auc = roc_auc(scores, truth)
    loop_points, loop_auc = loop_roc_auc(scores, truth)
    assert points == loop_points
    assert auc == loop_auc
    counts = confusion(np.array(scores) >= SCAM_THRESHOLD, truth)
    predicted = [1 if score >= SCAM_THRESHOLD else 0 for score in scores]
    assert (counts.tp, counts.fp, counts.fn, counts.tn) == loop_confusion(predicted,
                                                                          truth)


def test_confusion_of_nothing_is_zeros_and_lengths_must_match():
    assert confusion([], []) == ConfusionCounts()
    with pytest.raises(ValueError):
        confusion([1, 0], [1])


# --- folds ------------------------------------------------------------------------

def test_hundred_rows_make_five_equal_folds():
    labels = [1] * 35 + [0] * 65
    assignment = stratified_folds(labels, 5, seed=0)
    sizes = [assignment.count(f) for f in range(5)]
    assert sizes == [20] * 5


def test_uneven_class_counts_stay_within_one_row():
    labels = [1] * 33 + [0] * 67
    assignment = stratified_folds(labels, 5, seed=1)
    sizes = [assignment.count(f) for f in range(5)]
    assert max(sizes) - min(sizes) <= 1


def test_stratification_keeps_class_share_per_fold():
    labels = [1] * 30 + [0] * 70
    assignment = stratified_folds(labels, 5, seed=2)
    for fold in range(5):
        positives = sum(1 for lab, a in zip(labels, assignment)
                        if a == fold and lab == 1)
        assert positives == 6  # 30% of 20, exactly divisible here


def test_fold_assignment_is_seeded_and_deterministic():
    labels = [1] * 40 + [0] * 60
    assert stratified_folds(labels, 5, seed=7) == stratified_folds(labels, 5, seed=7)
    assert stratified_folds(labels, 5, seed=7) != stratified_folds(labels, 5, seed=8)


def test_class_smaller_than_k_is_rejected():
    with pytest.raises(ValueError):
        stratified_folds([1, 0, 0, 0, 0, 0], 5, seed=0)


def test_folds_partition_every_row():
    labels = [1] * 13 + [0] * 29
    assignment = stratified_folds(labels, 5, seed=3)
    assert len(assignment) == 42
    assert set(assignment) == set(range(5))


@st.composite
def fold_labels(draw):
    """Labels of two classes, each with at least ``k`` rows, often exactly ``k``."""
    k = draw(st.integers(2, 6))
    n_pos = draw(st.one_of(st.just(k), st.integers(k, 5 * k)))
    n_neg = draw(st.one_of(st.just(k), st.integers(k, 5 * k)))
    labels = draw(st.permutations([1] * n_pos + [0] * n_neg))
    return labels, k, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=300, deadline=None)
@given(fold_labels())
def test_folds_equal_the_loop_reference(case):
    labels, k, seed = case
    assert stratified_folds(labels, k, seed) == loop_stratified_folds(labels, k, seed)


# --- cross validation ----------------------------------------------------------------

def test_cv_report_shape_and_averaging():
    dataset = toy_dataset(30)
    report = kfold_cv(dataset, k=5, seed=0)
    assert len(report.breakdown) == 5
    for attr in ("accuracy", "precision", "recall", "f1", "auc"):
        mean = float(np.mean([getattr(f, attr) for f in report.breakdown]))
        assert getattr(report, attr) == pytest.approx(mean, abs=1e-12)
    total = sum(f.counts.total for f in report.breakdown)
    assert total == len(dataset)


def test_cv_is_deterministic_for_a_seed():
    dataset = toy_dataset(25)
    r1 = kfold_cv(dataset, k=5, seed=4)
    r2 = kfold_cv(dataset, k=5, seed=4)
    assert r1.accuracy == r2.accuracy
    assert [f.counts.tp for f in r1.breakdown] == [f.counts.tp for f in r2.breakdown]


def test_evaluating_training_rows_trips_the_leakage_guard():
    dataset = toy_dataset(20)
    model = train(dataset)
    with pytest.raises(LeakageError):
        evaluate_model(model, dataset, check_leakage=True)


def _constant_model(dataset, intercept, variant="full"):
    """A model trained on ``dataset`` whose every score is sigmoid(intercept)."""
    model = train(dataset, variant=variant)
    model.intercept = intercept
    model.coefficients = np.zeros_like(model.coefficients)
    return model


def test_a_score_exactly_at_the_threshold_is_a_predicted_scam():
    dataset = toy_dataset(10)
    at = evaluate_model(_constant_model(dataset, 0.0), dataset)  # sigmoid(0) = 0.5
    assert (at.counts.tp, at.counts.fp, at.counts.fn, at.counts.tn) == (10, 10, 0, 0)
    below = evaluate_model(_constant_model(dataset, -1e-9), dataset)
    assert (below.counts.tp, below.counts.fp) == (0, 0)
    vectors = feature_table([small_vector("0x" + "5" * 40, 120, 700)])
    assert unlabeled_scan(_constant_model(dataset, 0.0, "reduced"),
                          vectors).predicted_scam == 1
    assert unlabeled_scan(_constant_model(dataset, -1e-9, "reduced"),
                          vectors).predicted_scam == 0


# --- cross-window ----------------------------------------------------------------------

def test_eval_on_train_window_reproduces_in_sample_metrics():
    dataset = toy_dataset(30)
    model, reports = cross_window_eval(dataset, [dataset])
    in_sample = evaluate_model(model, dataset)
    assert reports[0].accuracy == in_sample.accuracy
    assert reports[0].counts.tp == in_sample.counts.tp


def test_standardizer_is_frozen_across_windows():
    train_set = toy_dataset(30, seed=0)
    shifted = toy_dataset(30, seed=1)
    model, reports = cross_window_eval(train_set, [shifted])
    direct = evaluate_model(model, shifted)
    assert reports[0].accuracy == direct.accuracy


def test_inverted_class_balance_hits_precision_not_accuracy():
    train_set = toy_dataset(40, seed=0)
    # evaluation window with scams rare: false positives hurt precision more
    legit, scams = toy_dataset(40, seed=2), toy_dataset(5, seed=3)
    legit, scams = legit[legit.labels == 0], scams[scams.labels == 1]
    rare = LabeledDataset(np.concatenate([legit.table, scams.table]).view(np.recarray),
                          np.concatenate([legit.labels, scams.labels]))
    model, reports = cross_window_eval(train_set, [rare])
    report = reports[0]
    assert report.accuracy >= 0.8


# --- scans -------------------------------------------------------------------------------

def small_vector(token, nodes, lifetime, std=None, amount=10 ** 19):
    return _vector(token, {
        "num_nodes": nodes, "num_edges": nodes + 10, "num_components": 5,
        "avg_comp_size": nodes / 5, "lifetime": lifetime,
        "transfer_std_dev": std if std is not None else lifetime / 4 + 1.0,
        "amount": amount,
    })


def test_scan_requires_reduced_model():
    dataset = toy_dataset(20)
    full_model = train(dataset, variant="full")
    with pytest.raises(VariantMismatchError):
        unlabeled_scan(full_model, feature_table([small_vector("0x" + "1" * 40, 50, 500)]))


def test_scan_empty_input_is_all_zeros():
    model = train(toy_dataset(20), variant="reduced")
    report = unlabeled_scan(model, feature_table([]))
    assert (report.total, report.predicted_scam) == (0, 0)
    assert report.scam_share == report.share_over_100_nodes == 0.0
    assert report.share_lifetime_under_1000 == 0.0


def test_scan_ignores_graphs_above_the_size_cut():
    model = train(toy_dataset(20), variant="reduced")
    vectors = feature_table([small_vector("0x" + "2" * 40, 2000, 500),
                             small_vector("0x" + "3" * 40, 400, 500)])
    report = unlabeled_scan(model, vectors, max_nodes=500)
    assert report.total == 1


def test_scan_strata_shares():
    model = train(toy_dataset(30), variant="reduced")
    vectors = feature_table([small_vector("0x" + format(i, "040x"), 50 + 100 * (i % 3),
                                          400 if i % 2 else 40_000)
                             for i in range(20)])
    report = unlabeled_scan(model, vectors)
    assert report.total == 20
    assert 0.0 <= report.scam_share <= 1.0
    assert 0.0 <= report.share_over_100_nodes <= 1.0
    assert 0.0 <= report.share_lifetime_under_1000 <= 1.0


# --- report files ----------------------------------------------------------------------------

def test_report_file_has_breakdown_plus_average_row(tmp_path):
    dataset = toy_dataset(30)
    report = kfold_cv(dataset, k=5, seed=0)
    path = tmp_path / "report.csv"
    write_report(report, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("label,tp,fp,fn,tn,accuracy")
    assert len(lines) == 7  # header + 5 folds + averaged row
    assert lines[-1].startswith(report.label)


def test_roc_file_is_two_columns(tmp_path):
    points, _ = roc_auc([0.9, 0.4, 0.35, 0.8], [1, 0, 0, 1])
    path = tmp_path / "roc.csv"
    write_roc(points, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "fpr,tpr"
    assert len(lines) == len(points) + 1


def test_scan_report_file_fields(tmp_path):
    model = train(toy_dataset(20), variant="reduced")
    report = unlabeled_scan(model, feature_table([small_vector("0x" + "4" * 40, 120, 700)]))
    path = tmp_path / "scan.csv"
    write_scan_report(report, path)
    text = path.read_text()
    for key in ("total_scanned", "predicted_scam_share", "share_over_100_nodes",
                "share_lifetime_under_1000"):
        assert key in text


# --- row selection against straight loops ----------------------------------------------

@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 1), max_size=14), st.integers(2, 3), st.integers(0, 2**32 - 1))
@example([], 2, 0)
def test_each_fold_trains_and_scores_the_rows_a_straight_loop_selects(labels, k, seed):
    rows = [_vector(f"0xrow{i}", {"num_nodes": 600 + i}) for i in range(len(labels))]
    dataset = LabeledDataset(feature_table(rows), np.array(labels, dtype=np.int64))
    if min(labels.count(0), labels.count(1)) < k:
        with pytest.raises(ValueError, match=f"^class {int(labels.count(0) >= k)} has fewer "
                                             f"than {k} rows$"):
            kfold_cv(dataset, k=k, seed=seed)
        return
    trained, scored = [], []

    def evaluate(model, test_set, label, check_leakage):
        scored.append(test_set)
        return EvalReport(label, ConfusionCounts(), 0.0, 0.0, 0.0, 0.0, 0.0)

    with mock.patch.object(evaluation_mod, "train", side_effect=lambda ds, *a: trained.append(ds)), \
            mock.patch.object(evaluation_mod, "evaluate_model", side_effect=evaluate):
        kfold_cv(dataset, k=k, seed=seed)
    folds = loop_stratified_folds(labels, k, seed)
    for fold, train_set, test_set in zip(range(k), trained, scored, strict=True):
        for subset, in_fold in ((train_set, False), (test_set, True)):
            keep = [i for i, f in enumerate(folds) if (f == fold) == in_fold]
            assert [tuple(row) for row in subset.table] == [rows[i] for i in keep]
            assert subset.labels.tolist() == [labels[i] for i in keep]


@functools.cache
def _reduced_model():
    return train(toy_dataset(20), variant="reduced")


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1_000), st.integers(0, 3_000)), max_size=12),
       st.integers(0, 1_000))
@example([], 500)
def test_a_scan_scores_the_rows_a_straight_loop_selects(cells, max_nodes):
    rows = [small_vector("0x" + format(i, "040x"), nodes, lifetime)
            for i, (nodes, lifetime) in enumerate(cells)]
    calls = []

    def scores(model, table):
        calls.append((table, predict_proba(model, table)))
        return calls[-1][1]

    with mock.patch.object(evaluation_mod, "predict_proba", side_effect=scores):
        report = unlabeled_scan(_reduced_model(), feature_table(rows), max_nodes)
    small = [row for row in rows if row[3] <= max_nodes]  # num_nodes
    if not small:
        assert report == ScanReport(0, 0, 0.0, 0.0, 0.0) and calls == []
        return
    (table, probabilities), = calls
    assert [tuple(row) for row in table] == small
    flagged = [p >= SCAM_THRESHOLD for p in probabilities.tolist()]

    def share(mask):
        chosen = [flag for flag, keep in zip(flagged, mask) if keep]
        return sum(chosen) / len(chosen) if chosen else 0.0

    assert report == ScanReport(len(small), sum(flagged), sum(flagged) / len(small),
                                share([row[3] > 100 for row in small]),
                                share([row[8] < 1000 for row in small]))  # lifetime
