from __future__ import annotations

import json
import math
import os
from bisect import bisect_right

import numpy as np
import pytest

from tokengraphs.dataset import join, load_labels
from tokengraphs.features import extract_features, feature_table
from tokengraphs.graphs import build_graphs, weak_components
from tokengraphs.ingest import BlockWindow, iter_window_groups, read_fixture
from tokengraphs.synth import (
    COUNTERFEIT_POISONING,
    HONEYPOT_STAR,
    LEGITIMATE,
    NULL_ADDRESS,
    _SCRAP_CDF,
    _SCRAP_SIZES,
    ArchetypeConfig,
    CorpusProfile,
    gen_corpus,
    gen_scan_corpus,
    generate,
)

from conftest import batch_of, batch_rows, feature_row
from oracles import degree_stats, summarize

WINDOW = BlockWindow(18_000_000, 18_100_000)


def analyzed(batch):
    graphs = build_graphs(batch, WINDOW)
    (token, graph), = graphs.items()
    return graph, weak_components(graph), feature_row(graph)


def legit_cfg(budget=200, lifetime=90_000, seed=0, **kw):
    return ArchetypeConfig(kind=LEGITIMATE, node_budget=budget, window=WINDOW,
                           lifetime=lifetime, seed=seed, **kw)


def star_cfg(budget=200, lifetime=8_000, seed=0, conc=0.4, **kw):
    return ArchetypeConfig(kind=HONEYPOT_STAR, node_budget=budget, window=WINDOW,
                           lifetime=lifetime, temporal_concentration=conc,
                           seed=seed, **kw)


def pois_cfg(budget=200, lifetime=8_000, seed=0, conc=0.4, **kw):
    return ArchetypeConfig(kind=COUNTERFEIT_POISONING, node_budget=budget,
                           window=WINDOW, lifetime=lifetime,
                           temporal_concentration=conc, seed=seed, **kw)


# --- config validation --------------------------------------------------------

def test_lifetime_must_fit_window():
    with pytest.raises(ValueError):
        legit_cfg(lifetime=WINDOW.width)


def test_concentration_range():
    with pytest.raises(ValueError):
        star_cfg(conc=0.0)
    with pytest.raises(ValueError):
        star_cfg(conc=1.5)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        ArchetypeConfig(kind="ponzi", node_budget=10, window=WINDOW,
                        lifetime=100, seed=0)


def test_budget_floors():
    with pytest.raises(ValueError):
        legit_cfg(budget=19)
    with pytest.raises(ValueError):
        star_cfg(budget=9)
    with pytest.raises(ValueError):
        pois_cfg(budget=5)
    floors = (legit_cfg(budget=20), star_cfg(budget=10), pois_cfg(budget=6))
    assert [len(generate(cfg).nodes[0]) for cfg in floors] == [42 * 20, 42 * 10, 42 * 6]


def test_scam_lifetime_cap_enforced():
    with pytest.raises(ValueError):
        star_cfg(lifetime=10_000)
    with pytest.raises(ValueError):
        pois_cfg(lifetime=10_000)
    assert np.ptp(generate(pois_cfg(lifetime=9_999)).block) <= 9_999


def test_label_follows_the_kind():
    assert [cfg.label for cfg in (legit_cfg(), star_cfg(), pois_cfg())] == [0, 1, 1]


# --- legitimate archetype -------------------------------------------------------

def test_legit_giant_component_dominates():
    graph, comps, fv = analyzed(generate(legit_cfg(budget=2_000)))
    assert fv.num_nodes == 2_000
    assert max(comps.sizes) >= 1_500
    for size in sorted(comps.sizes)[:-1]:
        assert 2 <= size <= 5


def test_legit_lifetime_spans_most_of_the_window():
    batch = generate(legit_cfg(budget=150, lifetime=85_000))
    _, _, fv = analyzed(batch)
    assert fv.lifetime == 85_000
    assert fv.lifetime >= 0.8 * WINDOW.width


def test_legit_requires_long_lifetime():
    with pytest.raises(ValueError):
        legit_cfg(lifetime=79_999)
    assert len(generate(legit_cfg(lifetime=80_000)))


def test_legit_same_seed_is_identical():
    assert batch_rows(generate(legit_cfg(seed=5))) == batch_rows(generate(legit_cfg(seed=5)))


def test_legit_different_seed_differs():
    assert (batch_rows(generate(legit_cfg(seed=5)))
            != batch_rows(generate(legit_cfg(seed=6))))


# --- honeypot star --------------------------------------------------------------

def test_star_is_single_component_with_two_hubs():
    graph, comps, fv = analyzed(generate(star_cfg(budget=2_173)))
    assert comps.count == 1
    assert fv.num_nodes == 2_173
    in_deg, out_deg = degree_stats(graph)
    hubs = graph.nodes[in_deg + out_deg > 3].tolist()
    assert len(hubs) == 2
    assert NULL_ADDRESS in hubs


def test_star_lifetime_stays_under_ten_thousand():
    for seed in range(10):
        batch = generate(star_cfg(seed=seed, lifetime=9_400))
        _, _, fv = analyzed(batch)
        assert fv.lifetime < 10_000


def test_star_blocks_are_clustered():
    cfg = star_cfg(budget=500, lifetime=9_000, conc=0.3)
    batch = generate(cfg)
    _, _, fv = analyzed(batch)
    assert fv.transfer_std_dev <= cfg.temporal_concentration * cfg.lifetime / math.sqrt(12)


# --- counterfeit poisoning -------------------------------------------------------

def test_poisoning_components_are_small_scraps():
    graph, comps, fv = analyzed(generate(pois_cfg(budget=900)))
    assert fv.avg_comp_size <= 4
    assert max(comps.sizes) <= 4
    assert fv.num_components >= 900 / 4


def test_poisoning_each_component_has_its_own_scammer():
    batch = generate(pois_cfg(budget=60))
    graph, comps, _ = analyzed(batch)
    # every component has a sender, so one sender each means as many as components
    assert len(set(graph.edge_from.tolist())) == comps.count


def test_poisoning_values_are_dust():
    batch = generate(pois_cfg(budget=100))
    assert max(batch.values) < 1_000


def test_poisoning_same_seed_reruns_identically():
    assert batch_rows(generate(pois_cfg(seed=3))) == batch_rows(generate(pois_cfg(seed=3)))


# --- archetype sweep ---------------------------------------------------------------

def test_every_archetype_holds_its_contract_over_many_seeds():
    rng = np.random.default_rng(2024)
    for seed in range(100):
        budget = int(rng.integers(40, 300))
        batch = generate(legit_cfg(
            budget=max(budget, 20), lifetime=int(rng.uniform(0.82, 0.97) * WINDOW.width),
            seed=seed))
        _, comps, fv = analyzed(batch)
        assert max(comps.sizes) >= 0.75 * fv.num_nodes
        assert fv.lifetime >= 0.8 * WINDOW.width

        life = int(rng.integers(1_500, 9_500))
        conc = float(rng.uniform(0.08, 1.0))
        batch = generate(star_cfg(budget=max(budget, 10), lifetime=life, conc=conc,
                                  seed=seed))
        graph, comps, fv = analyzed(batch)
        assert comps.count == 1
        in_deg, out_deg = degree_stats(graph)
        assert np.count_nonzero(in_deg + out_deg > 3) == 2
        assert fv.lifetime < 10_000
        assert fv.transfer_std_dev <= conc * life / math.sqrt(12)

        batch = generate(pois_cfg(budget=max(budget, 6), lifetime=life, conc=conc,
                                  seed=seed))
        _, comps, fv = analyzed(batch)
        assert fv.avg_comp_size <= 4
        assert fv.lifetime < 10_000
        assert fv.transfer_std_dev <= conc * life / math.sqrt(12)


# --- corpus -------------------------------------------------------------------------

def test_corpus_files_round_trip_and_label_consistency(tmp_path):
    fixture = tmp_path / "fixture.tsv"
    labels_path = tmp_path / "labels.csv"
    manifest = gen_corpus(20, 0.35, [WINDOW], fixture, labels_path, seed=1)
    events = list(read_fixture(fixture))
    assert len(events) == manifest["total_events"]

    labels = load_labels(labels_path)
    assert len(labels) == 20
    assert sum(labels.values()) == 7  # round(20 * 0.35)

    # every generated token appears and its shape matches its label
    graphs = build_graphs(batch_of(events), WINDOW)
    assert set(graphs) == set(labels)
    for token, graph in graphs.items():
        fv = feature_row(graph)
        if labels[token] == 1:
            assert fv.lifetime < 10_000
        else:
            assert fv.lifetime >= 0.8 * WINDOW.width


def test_corpus_scam_count_matches_table_mix(tmp_path):
    manifest = gen_corpus(926, 0.353, [WINDOW], tmp_path / "f.tsv",
                          tmp_path / "l.csv", seed=0,
                          profile=CorpusProfile(legit_budget=(510, 540),
                                                scam_budget=(510, 540)))
    assert manifest["scam_tokens_per_window"] == 327
    labels = load_labels(tmp_path / "l.csv")
    assert sum(labels.values()) == 327


def test_zero_scam_fraction_gives_all_clean_labels(tmp_path):
    gen_corpus(12, 0.0, [WINDOW], tmp_path / "f.tsv", tmp_path / "l.csv", seed=2)
    labels = load_labels(tmp_path / "l.csv")
    assert set(labels.values()) == {0}


def test_corpus_rerun_is_byte_identical(tmp_path):
    corpora = [gen_corpus(15, 0.4, [WINDOW], tmp_path / f"f{run}.tsv",
                          tmp_path / f"l{run}.csv", seed=9) for run in ("a", "b")]
    assert (tmp_path / "fa.tsv").read_bytes() == (tmp_path / "fb.tsv").read_bytes()
    assert (tmp_path / "la.csv").read_bytes() == (tmp_path / "lb.csv").read_bytes()
    assert corpora[0] == corpora[1]


def test_legitimate_tokens_recur_scams_do_not(tmp_path):
    windows = [WINDOW, BlockWindow(18_100_000, 18_200_000)]
    gen_corpus(10, 0.4, windows, tmp_path / "f.tsv", tmp_path / "l.csv", seed=4)
    labels = load_labels(tmp_path / "l.csv")
    presence: dict[str, set] = {}
    for window, batch in iter_window_groups(tmp_path / "f.tsv", 100_000):
        for token in build_graphs(batch, window):
            presence.setdefault(token, set()).add(window.start)
    for token, windows_seen in presence.items():
        if labels[token] == 0:
            assert len(windows_seen) == 2
        else:
            assert len(windows_seen) == 1


def test_recurring_legit_tokens_push_unique_fraction_up(tmp_path):
    windows = [WINDOW, BlockWindow(18_100_000, 18_200_000)]
    gen_corpus(30, 0.4, windows, tmp_path / "f.tsv", tmp_path / "l.csv", seed=6,
               profile=CorpusProfile(legit_budget=(510, 600), scam_budget=(510, 600)))
    labels = load_labels(tmp_path / "l.csv")
    datasets = []
    for window, batch in iter_window_groups(tmp_path / "f.tsv", 100_000):
        rows = [extract_features(g) for g in build_graphs(batch, window).values()]
        datasets.append(join(feature_table(rows), labels, 500))
    summary = summarize(datasets)
    assert summary.unique_fraction > summary.pooled_fraction


def test_scan_corpus_is_small_graphs_only(tmp_path):
    manifest = gen_scan_corpus(30, WINDOW, tmp_path / "scan.tsv", seed=3)
    events = list(read_fixture(tmp_path / "scan.tsv"))
    assert len(events) == manifest["total_events"]
    graphs = build_graphs(batch_of(events), WINDOW)
    assert len(graphs) == 30
    young = 0
    for graph in graphs.values():
        fv = feature_row(graph)
        assert fv.num_nodes <= 500
        young += fv.lifetime < 1_000
    assert young >= 10  # the young-token slice is present


def test_scrap_size_search_is_the_draw_choice_makes():
    for seed in range(50):
        ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(100):
            size = _SCRAP_SIZES[bisect_right(_SCRAP_CDF, ours.random())]
            assert size == int(numpys.choice((2, 3, 4), p=(0.5, 0.35, 0.15)))
        assert ours.bit_generator.state == numpys.bit_generator.state
