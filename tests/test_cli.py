from __future__ import annotations

import ast
import builtins
import contextlib
import errno
import io
import json
import logging
import os
import pathlib
import random
import tempfile
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tokengraphs.cli as cli_mod
import tokengraphs.features as features_mod
from tokengraphs.cli import main
from tokengraphs.features import read_feature_table
from tokengraphs.ingest import (ENDPOINT_ENV_VAR, BlockWindow, format_fixture_line,
                                read_fixture)
from tokengraphs.model import ModelFormatError, load_model
from tokengraphs.synth import CorpusProfile, gen_corpus

from conftest import make_event
from oracles import straight_fetch_lines
from test_ingest import TOPIC, FakeProvider, rpc_entry


@pytest.fixture
def corpus(tmp_path):
    out = tmp_path / "corpus"
    assert main(["synth", "--out-dir", str(out), "--n-tokens", "40",
                 "--scam-fraction", "0.35", "--seed", "7"]) == 0
    features = tmp_path / "features.csv"
    assert main(["features", "--fixture", str(out / "fixture.tsv"),
                 "--out", str(features)]) == 0
    return {"dir": out, "fixture": out / "fixture.tsv",
            "labels": out / "labels.csv", "features": features,
            "tmp": tmp_path}


def one_error_line(capsys) -> str:
    """The run's one ``error:`` line; stderr holds nothing else, no traceback."""
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    return lines[0]


# --- synth ----------------------------------------------------------------------

def test_synth_writes_manifest_with_config(corpus):
    manifest = json.loads((corpus["dir"] / "manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["config"]["scam_fraction"] == 0.35
    assert manifest["config"]["seed"] == 7
    assert manifest["corpus"]["total_events"] > 0


def test_synth_same_seed_is_byte_identical(tmp_path):
    for name in ("one", "two"):
        assert main(["synth", "--out-dir", str(tmp_path / name), "--n-tokens",
                     "15", "--seed", "3"]) == 0
    assert ((tmp_path / "one" / "fixture.tsv").read_bytes()
            == (tmp_path / "two" / "fixture.tsv").read_bytes())
    assert ((tmp_path / "one" / "labels.csv").read_bytes()
            == (tmp_path / "two" / "labels.csv").read_bytes())


def test_synth_scan_kind_has_no_labels(tmp_path):
    out = tmp_path / "scan"
    assert main(["synth", "--out-dir", str(out), "--kind", "scan",
                 "--n-tokens", "10", "--seed", "1"]) == 0
    assert (out / "fixture.tsv").exists()
    assert not (out / "labels.csv").exists()


def test_synth_without_windows_exits_2(tmp_path, capsys):
    out = tmp_path / "none"
    assert main(["synth", "--out-dir", str(out), "--kind", "scan",
                 "--n-tokens", "3", "--n-windows", "0"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: at least one window is required"]
    assert not out.exists()


def test_synth_scan_with_more_than_one_window_exits_2(tmp_path, capsys):
    out = tmp_path / "scan"
    assert main(["synth", "--out-dir", str(out), "--kind", "scan",
                 "--n-tokens", "3", "--n-windows", "2"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: a scan corpus has one window: pass --n-windows 1"]
    assert not out.exists()


# each refused before the out-dir is touched: features cuts windows at
# multiples of the width, so a start off that grid straddles two windows
_BAD_SYNTH_WINDOWS = {
    "start-off-the-width-grid": (["--window-start", "18000001"], "--window-start"),
    "zero-width": (["--window-width", "0"], "--window-width"),
    "fraction-above-1": (["--scam-fraction", "1.5"], "--scam-fraction"),
    "negative-fraction": (["--scam-fraction", "-0.1"], "--scam-fraction"),
    "nan-fraction": (["--scam-fraction", "nan"], "--scam-fraction"),
}


@pytest.mark.parametrize("args, option", [
    (["--n-tokens", "-3"], "--n-tokens"),
    (["--seed", "-1"], "--seed"),
    (["--window-start", "-100000"], "--window-start"),
    (["--window-start", "9223372036854700000"], "--window-start"),
    (["--window-width", "5000"], None),  # too narrow for the profile's lifetimes
    *_BAD_SYNTH_WINDOWS.values(),
], ids=["negative-tokens", "negative-seed", "negative-start", "end-past-int64",
        "narrow-width", *_BAD_SYNTH_WINDOWS])
def test_synth_input_error_exits_2_and_leaves_the_corpus(tmp_path, capsys, args, option):
    out = tmp_path / "corpus"
    assert main(["synth", "--out-dir", str(out), "--n-tokens", "3"]) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    capsys.readouterr()
    assert main(["synth", "--out-dir", str(out), "--n-tokens", "3", *args]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert option is None or option in err[0]
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


@pytest.mark.parametrize("args, option", _BAD_SYNTH_WINDOWS.values(),
                         ids=list(_BAD_SYNTH_WINDOWS))
def test_synth_bad_window_or_fraction_creates_no_out_dir(tmp_path, capsys, args, option):
    out = tmp_path / "fresh"
    assert main(["synth", "--out-dir", str(out), "--n-tokens", "3", *args]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and option in err[0]
    assert not out.exists()


def test_synth_writes_its_manifest_where_asked(tmp_path):
    out, manifest = tmp_path / "corpus", tmp_path / "elsewhere.json"
    assert main(["synth", "--out-dir", str(out), "--n-tokens", "3",
                 "--manifest", str(manifest)]) == 0
    assert json.loads(manifest.read_text())["config"]["manifest"] == str(manifest)
    assert not (out / "manifest.json").exists()


def test_synth_out_dir_that_is_a_file_exits_2_and_writes_nothing(tmp_path, capsys):
    target = tmp_path / "F"
    target.write_text("kept\n")
    assert main(["synth", "--out-dir", str(target), "--n-tokens", "3"]) == 2
    assert "File exists" in one_error_line(capsys)
    assert target.read_text() == "kept\n"
    assert [path.name for path in tmp_path.iterdir()] == ["F"]


# --- features --------------------------------------------------------------------

def test_features_writes_one_row_per_token_window(corpus):
    rows = read_feature_table(corpus["features"])
    assert len(rows) == 40


@pytest.mark.parametrize("width", [2**63, 2**64])
def test_a_window_of_2_to_the_63_blocks_or_more_holds_the_whole_fixture(corpus, width):
    tables = {}
    for w in (2**62, width):
        out = corpus["tmp"] / f"features_{w}.csv"
        assert main(["features", "--fixture", str(corpus["fixture"]), "--out", str(out),
                     "--window-width", str(w)]) == 0
        tables[w] = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(tables[width]) == 40
    assert {(row[1], row[2]) for row in tables[width]} == {("0", str(width))}
    assert ([row[:2] + row[3:] for row in tables[width]]
            == [row[:2] + row[3:] for row in tables[2**62]])


def test_features_empty_fixture_gives_header_only(tmp_path):
    fixture = tmp_path / "empty.tsv"
    fixture.write_text("")
    out = tmp_path / "features.csv"
    assert main(["features", "--fixture", str(fixture), "--out", str(out)]) == 0
    assert out.read_text().count("\n") == 1


def test_features_parse_error_exit_code(tmp_path):
    fixture = tmp_path / "broken.tsv"
    fixture.write_text("not a fixture line\n")
    assert main(["features", "--fixture", str(fixture),
                 "--out", str(tmp_path / "f.csv")]) == 2


def _record_opens(monkeypatch) -> list[tuple[str, str]]:
    """(file, mode) of every ``open()`` from now on, by any module."""
    opened = []
    original = builtins.open

    def recording(file, mode="r", *args, **kwargs):
        opened.append((str(file), mode))
        return original(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", recording)
    return opened


def test_features_bad_line_reads_the_fixture_once(tmp_path, monkeypatch, capsys):
    good = [format_fixture_line(make_event(block=18_000_000 + i, log_index=0))
            for i in range(1000)]
    out = tmp_path / "f.csv"
    opened = _record_opens(monkeypatch)
    for bad_line in (2, 1000, 1001):  # in the first block, the last one, and a line past it
        lines = good[:bad_line - 1] + ["not a fixture line"] + good[bad_line - 1:]
        fixture = tmp_path / f"bad{bad_line}.tsv"
        fixture.write_text("\n".join(lines) + "\n")
        assert main(["features", "--fixture", str(fixture), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"error: line {bad_line}: expected 7 fields, "
                                           f"got 1\n")
        assert [mode for file, mode in opened if file == str(fixture)] == ["rb"]
    assert not out.exists()


def test_features_window_width_below_1_exits_2(tmp_path, capsys):
    fixture = tmp_path / "one.tsv"
    fixture.write_text(format_fixture_line(make_event()) + "\n")
    out = tmp_path / "f.csv"
    assert main(["features", "--fixture", str(fixture), "--out", str(out),
                 "--window-width", "0"]) == 2
    assert one_error_line(capsys) == "error: window width must be >= 1 block"
    assert not out.exists()


def test_features_fixture_below_a_file_exits_2(tmp_path, capsys):
    (tmp_path / "F").write_text("")
    out = tmp_path / "f.csv"
    assert main(["features", "--fixture", str(tmp_path / "F" / "x"), "--out", str(out)]) == 2
    assert "Not a directory" in one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("option", ["--out", "--histogram-out"])
@pytest.mark.parametrize("directory", ["F", "missing"], ids=["below-a-file", "no-directory"])
def test_features_unusable_output_exits_2_before_the_fixture_is_read(tmp_path, capsys,
                                                                       option, directory):
    fixture = tmp_path / "bad2.tsv"
    fixture.write_text(format_fixture_line(make_event()) + "\nnot a fixture line\n")
    (tmp_path / "F").write_text("")
    outputs = {"--out": str(tmp_path / "f.csv"), "--histogram-out": str(tmp_path / "h.csv"),
               option: str(tmp_path / directory / "x.csv")}
    assert main(["features", "--fixture", str(fixture), *(cell for pair in outputs.items()
                                                         for cell in pair)]) == 2
    assert one_error_line(capsys).startswith(f"error: {option} {outputs[option]}: ")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["F", "bad2.tsv"]


def test_features_export_dir_below_a_file_exits_2_before_the_fixture_is_read(tmp_path,
                                                                             capsys):
    fixture = tmp_path / "bad2.tsv"
    fixture.write_text(format_fixture_line(make_event()) + "\nnot a fixture line\n")
    (tmp_path / "F").write_text("")
    assert main(["features", "--fixture", str(fixture), "--out", str(tmp_path / "f.csv"),
                 "--export-graphs", str(tmp_path / "F" / "graphs")]) == 2
    assert "Not a directory" in one_error_line(capsys)
    assert sorted(path.name for path in tmp_path.iterdir()) == ["F", "bad2.tsv"]


def test_features_input_error_makes_no_export_dir(tmp_path, capsys):
    fixture = tmp_path / "one.tsv"
    fixture.write_text(format_fixture_line(make_event()) + "\n")
    for export, args, named in (("G", ["--fixture", str(fixture), "--window-width", "0"],
                                 "window width must be >= 1 block"),
                                ("H", ["--fixture", str(tmp_path / "missing.tsv")],
                                 "No such file")):
        assert main(["features", *args, "--out", str(tmp_path / "f.csv"),
                     "--export-graphs", str(tmp_path / export)]) == 2
        assert named in one_error_line(capsys)
    assert [path.name for path in tmp_path.iterdir()] == ["one.tsv"]


def test_features_device_error_exits_3(tmp_path, monkeypatch, capsys):
    fixture = tmp_path / "one.tsv"
    fixture.write_text(format_fixture_line(make_event()) + "\n")

    def disk_full(*_args):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(features_mod, "write_rows", disk_full)
    assert main(["features", "--fixture", str(fixture),
                 "--out", str(tmp_path / "f.csv")]) == 3
    assert one_error_line(capsys) == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"


def test_features_block_beyond_int64_is_an_input_error(tmp_path, capsys):
    fields = format_fixture_line(make_event()).split("\t")
    fields[4] = "99999999999999999999999"
    fixture = tmp_path / "big.tsv"
    fixture.write_text("\t".join(fields) + "\n")
    out = tmp_path / "f.csv"
    assert main(["features", "--fixture", str(fixture), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: line 1: block or logIndex out of int64 range"]
    assert not out.exists()


def test_features_interleaved_windows_are_an_input_error(tmp_path, monkeypatch,
                                                         capsys):
    events = [make_event(block=18_000_001), make_event(block=18_100_001),
              make_event(block=18_000_002, log_index=1)]
    fixture = tmp_path / "interleaved.tsv"
    fixture.write_text("".join(format_fixture_line(e) + "\n" for e in events))
    opened = _record_opens(monkeypatch)
    out = tmp_path / "f.csv"
    assert main(["features", "--fixture", str(fixture), "--out", str(out)]) == 2
    assert ("fixture windows are interleaved; sort the fixture by block"
            in capsys.readouterr().err)
    assert [mode for file, mode in opened if file == str(fixture)] == ["rb"]
    assert not out.exists()


def test_features_histograms_and_graph_export(corpus):
    hist = corpus["tmp"] / "hist.csv"
    graphs_dir = corpus["tmp"] / "graphs"
    assert main(["features", "--fixture", str(corpus["fixture"]),
                 "--out", str(corpus["tmp"] / "f2.csv"),
                 "--histogram-out", str(hist),
                 "--export-graphs", str(graphs_dir)]) == 0
    assert hist.read_text().startswith("feature,bin_start,bin_end,count")
    exported = list(graphs_dir.glob("*.edges"))
    assert len(exported) == 40
    first = exported[0].read_text().splitlines()
    assert first[0].startswith("# token=0x")


def _features_outputs(fixture, workdir) -> dict[str, bytes]:
    """The feature table and every exported edge list, by file name."""
    table, graphs_dir = workdir / "features.csv", workdir / "graphs"
    assert main(["features", "--fixture", str(fixture), "--out", str(table),
                 "--export-graphs", str(graphs_dir)]) == 0
    outputs = {p.name: p.read_bytes() for p in graphs_dir.iterdir()}
    outputs["features.csv"] = table.read_bytes()
    return outputs


@pytest.fixture(scope="module")
def two_window_corpus(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("two_windows")
    windows = [BlockWindow(18_000_000, 18_100_000), BlockWindow(18_100_000, 18_200_000)]
    gen_corpus(8, 0.5, windows, tmp / "fixture.tsv", tmp / "labels.csv", seed=3,
               profile=CorpusProfile(legit_budget=(20, 60), scam_budget=(20, 60)))
    lines = (tmp / "fixture.tsv").read_text().splitlines()
    reference = _features_outputs(tmp / "fixture.tsv", tmp / "reference")
    assert sum(name.endswith(".edges") for name in reference) > 8  # both windows
    return lines, reference


@settings(max_examples=20, deadline=None)
@given(st.randoms(use_true_random=False))
def test_line_order_inside_a_window_does_not_change_outputs(two_window_corpus, rnd):
    lines, reference = two_window_corpus
    by_window: dict[int, list[str]] = {}
    for line in lines:
        by_window.setdefault(int(line.split("\t")[4]) // 100_000, []).append(line)
    for window_lines in by_window.values():
        rnd.shuffle(window_lines)
    with tempfile.TemporaryDirectory() as tmp:
        workdir = pathlib.Path(tmp)
        fixture = workdir / "shuffled.tsv"
        fixture.write_text("".join(line + "\n" for group in by_window.values()
                                   for line in group))
        assert _features_outputs(fixture, workdir) == reference


def test_three_transfer_fixture_matches_hand_example(tmp_path):
    token = "0x" + "a" * 40
    addr = lambda s: "0x" + s.rjust(40, "0")
    tx = lambda n: "0x" + format(n, "064x")
    lines = [
        f"{token}\t{addr('a1')}\t{addr('b1')}\t10\t18000100\t0\t{tx(1)}",
        f"{token}\t{addr('b1')}\t{addr('c1')}\t5\t18000150\t1\t{tx(2)}",
        f"{token}\t{addr('a1')}\t{addr('c1')}\t7\t18000200\t2\t{tx(3)}",
    ]
    fixture = tmp_path / "three.tsv"
    fixture.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out.csv"
    assert main(["features", "--fixture", str(fixture), "--out", str(out)]) == 0
    row, = read_feature_table(out)
    assert row.num_nodes == 3 and row.num_edges == 3
    assert row.density == pytest.approx(0.5)
    assert row.lifetime == 100
    assert row.transfer_std_dev == pytest.approx(40.8248, abs=1e-4)
    assert row.amount == 22


# --- train / cv / crosseval ---------------------------------------------------------

def test_train_writes_model_and_manifest(corpus):
    model_path = corpus["tmp"] / "model.txt"
    assert main(["train", "--features", str(corpus["features"]),
                 "--labels", str(corpus["labels"]),
                 "--model-out", str(model_path)]) == 0
    model = load_model(model_path)
    assert model.variant == "full"
    assert os.path.exists(str(model_path) + ".manifest.json")


def test_train_warns_when_max_iters_is_reached(corpus, capsys):
    model_path = corpus["tmp"] / "capped.txt"
    assert main(["train", "--features", str(corpus["features"]),
                 "--labels", str(corpus["labels"]),
                 "--model-out", str(model_path), "--max-iters", "5"]) == 0
    err = capsys.readouterr().err
    assert err.count("without converging") == 1
    assert model_path.read_text().splitlines()[0] == "format_version: 1"
    assert load_model(model_path).iterations == 5


def test_train_warns_only_when_max_iters_stops_it_short_of_tolerance(corpus, capsys):
    """A cap equal to the fit's natural iteration count changes nothing and
    warns of nothing; one step less is a fit that did not converge."""
    args = ["train", "--features", str(corpus["features"]), "--labels", str(corpus["labels"]),
            "--model-out", str(corpus["tmp"] / "model.txt")]
    assert main(args) == 0
    natural = load_model(corpus["tmp"] / "model.txt")
    capsys.readouterr()
    assert main(args + ["--max-iters", str(natural.iterations)]) == 0
    assert "without converging" not in capsys.readouterr().err
    capped = load_model(corpus["tmp"] / "model.txt")
    assert (capped.iterations, capped.final_loss) == (natural.iterations, natural.final_loss)
    assert capped.coefficients.tolist() == natural.coefficients.tolist()
    assert main(args + ["--max-iters", str(natural.iterations - 1)]) == 0
    assert capsys.readouterr().err == (
        f"warning: gradient descent stopped at --max-iters {natural.iterations - 1} "
        "without converging\n")


@pytest.mark.parametrize("command", ["cv", "crosseval"])
def test_cv_and_crosseval_warn_when_max_iters_is_reached(corpus, capsys, command):
    features, labels = str(corpus["features"]), str(corpus["labels"])
    args = (["cv", "--features", features, "--labels", labels] if command == "cv"
            else ["crosseval", "--train-features", features, "--train-labels", labels,
                  "--eval", features, labels])
    args += ["--out", str(corpus["tmp"] / "report.csv")]
    assert main(args) == 0
    assert "without converging" not in capsys.readouterr().err
    assert main(args + ["--max-iters", "5"]) == 0
    assert capsys.readouterr().err.count(
        "warning: gradient descent stopped at --max-iters 5 without converging") == 1


def test_train_warns_of_over_threshold_tokens_without_a_label(corpus, capsys):
    big = next(fv.token for fv in read_feature_table(corpus["features"]) if fv.num_nodes > 500)
    labels = corpus["tmp"] / "labels.csv"
    kept = [line for line in corpus["labels"].read_text().splitlines(keepends=True)
            if big not in line]
    labels.write_text("".join(kept))
    capsys.readouterr()
    assert main(["train", "--features", str(corpus["features"]), "--labels", str(labels),
                 "--model-out", str(corpus["tmp"] / "model.txt")]) == 0
    assert capsys.readouterr().err == ("warning: 1 over-threshold tokens had no label "
                                       "and were excluded\n")


def test_train_reduced_variant_has_edges_per_component(corpus):
    model_path = corpus["tmp"] / "reduced.txt"
    assert main(["train", "--features", str(corpus["features"]),
                 "--labels", str(corpus["labels"]),
                 "--model-out", str(model_path), "--variant", "reduced"]) == 0
    assert "edges_per_component" in load_model(model_path).feature_names


def test_train_single_class_labels_fails(corpus, tmp_path):
    labels = tmp_path / "allclean.csv"
    original = corpus["labels"].read_text().splitlines()
    labels.write_text("\n".join([original[0]]
                                + [line.rsplit(",", 1)[0] + ",0"
                                   for line in original[1:]]) + "\n")
    assert main(["train", "--features", str(corpus["features"]),
                 "--labels", str(labels),
                 "--model-out", str(tmp_path / "m.txt")]) == 2


def test_train_with_a_diverging_learning_rate_exits_2(corpus, capsys):
    model_out = corpus["tmp"] / "m.txt"
    capsys.readouterr()
    assert main(["train", "--features", str(corpus["features"]),
                 "--labels", str(corpus["labels"]), "--model-out", str(model_out),
                 "--learning-rate", "1000", "--min-nodes", "0"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: loss increased at iteration 1; lower the learning rate"]
    assert not model_out.exists()


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    """A 40-token table with its labels, and a reduced model trained on it."""
    root = tmp_path_factory.mktemp("tables")
    assert main(["synth", "--out-dir", str(root), "--n-tokens", "40", "--seed", "1"]) == 0
    features = root / "features.csv"
    assert main(["features", "--fixture", str(root / "fixture.tsv"),
                 "--out", str(features)]) == 0
    model = root / "reduced.txt"
    assert main(["train", "--features", str(features), "--labels", str(root / "labels.csv"),
                 "--min-nodes", "0", "--variant", "reduced", "--model-out", str(model)]) == 0
    return {"features": features, "labels": root / "labels.csv", "model": model}


@pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning fails the test
@pytest.mark.parametrize("command", ["train", "cv", "crosseval"])
@pytest.mark.parametrize("option, value", [
    ("--learning-rate", "nan"), ("--learning-rate", "inf"), ("--learning-rate", "0"),
    ("--lambda", "nan"), ("--lambda", "inf"), ("--lambda", "-1"),
    ("--tolerance", "nan"), ("--max-iters", "-1"), ("--seed", "-1"),
])
def test_a_descent_setting_out_of_range_exits_2_before_reading(tables, tmp_path, capsys,
                                                               command, option, value):
    features, labels = str(tables["features"]), str(tables["labels"])
    out = tmp_path / "out"
    args = {"train": ["train", "--features", features, "--labels", labels,
                      "--model-out", str(out)],
            "cv": ["cv", "--features", features, "--labels", labels, "--out", str(out)],
            "crosseval": ["crosseval", "--train-features", features, "--train-labels",
                          labels, "--eval", features, labels, "--out", str(out)]}[command]
    capsys.readouterr()
    with mock.patch.object(cli_mod, "read_feature_table") as read:
        assert main([*args, "--min-nodes", "0", option, value]) == 2
    read.assert_not_called()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert option.lstrip("-").replace("-", "_") in err[0]
    assert list(tmp_path.iterdir()) == []


_STATS_BEYOND_FLOAT64 = ("error: the density column's mean or standard deviation over "
                         "the training rows is beyond the float64 range")
_SCORE_BEYOND_FLOAT64 = ("error: a density value z-scores beyond the float64 range under "
                         "the model's mean and standard deviation")


@pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning fails the test
@pytest.mark.parametrize("argv, refused", [
    (["train", "--variant", "reduced", "--features", "@bad", "--labels", "@labels",
      "--model-out", "@out"], _STATS_BEYOND_FLOAT64),
    (["cv", "--features", "@bad", "--labels", "@labels", "--out", "@out"],
     _STATS_BEYOND_FLOAT64),  # a fold trains on the row
    (["cv", "--seed", "8", "--features", "@bad", "--labels", "@labels", "--out", "@out"],
     _SCORE_BEYOND_FLOAT64),  # the first fold holds the row out and scores it
    (["crosseval", "--train-features", "@bad", "--train-labels", "@labels",
      "--eval", "@features", "@labels", "--out", "@out"], _STATS_BEYOND_FLOAT64),
    (["crosseval", "--train-features", "@features", "--train-labels", "@labels",
      "--eval", "@bad", "@labels", "--out", "@out"], _SCORE_BEYOND_FLOAT64),
    (["scan", "--model", "@model", "--features", "@bad", "--max-nodes", "100000",
      "--out", "@out"], _SCORE_BEYOND_FLOAT64),
])
def test_a_real_too_large_to_z_score_exits_2_and_writes_nothing(tables, tmp_path, capsys,
                                                                 argv, refused):
    """One finite ``density`` of 1e+308: its column's spread squares past
    float64, and its z-score under a model fitted without it overflows."""
    lines = tables["features"].read_text().splitlines()
    fields = lines[3].split(",")
    fields[5] = "1e+308"  # density
    lines[3] = ",".join(fields)
    out = tmp_path / "out"
    out.mkdir()
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    paths = {"@bad": bad, "@out": out / "result", "@features": tables["features"],
             "@labels": tables["labels"], "@model": tables["model"]}
    capsys.readouterr()
    assert main([str(paths.get(arg, arg)) for arg in argv] + ["--min-nodes", "0"] * (
        argv[0] != "scan")) == 2
    assert one_error_line(capsys) == refused
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("key, bad", [
    ("format_version", "x"), ("coefficients", "a"), ("max_iters", "1.5"),
    ("log_amount", "2"), ("lambda", "nan"),
])
def test_scan_names_the_key_of_a_bad_model_value(tables, tmp_path, capsys, key, bad):
    model = tmp_path / "model.txt"
    lines = tables["model"].read_text().splitlines()
    for i, line in enumerate(lines):
        name, value = line.split(": ", 1)
        if name == key:  # a list keeps its other entries
            lines[i] = f"{name}: " + ",".join([bad, *value.split(",")[1:]])
    model.write_text("\n".join(lines) + "\n")
    out = tmp_path / "report.csv"
    capsys.readouterr()
    assert main(["scan", "--model", str(model), "--features", str(tables["features"]),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and key in err[0]
    assert not out.exists()
    with pytest.raises(ModelFormatError, match=key):
        load_model(model)


_NUMERIC_MODEL_KEYS = {"intercept", "coefficients", "means", "stds", "lambda", "learning_rate",
                       "max_iters", "tolerance", "seed", "log_amount", "iterations",
                       "final_loss"}


@settings(max_examples=80, deadline=None)
@given(spoil=st.sampled_from(("drop", "duplicate", "misspelt", "empty", "word", "nan", "inf",
                              "extra", "colon", "byte")),
       index=st.integers(0, 13), at=st.integers(0, 200), number=st.floats())
@example(spoil="duplicate", index=0, at=0, number=0.0)  # the header line
@example(spoil="duplicate", index=2, at=0, number=0.0)  # intercept
@example(spoil="misspelt", index=2, at=0, number=0.0)  # 'intercep'
def test_scan_of_a_model_file_with_one_spoiled_line_exits_0_or_2(tables, spoil, index, at,
                                                                 number):
    """One line of a saved reduced model is dropped, duplicated, given an
    empty, non-number, nan or inf value or one entry too many, loses its
    ``": "`` or gains a byte that is not UTF-8, or a copy of it with its key
    misspelt follows it.  A duplicated line, the header included, repeats a
    key, and a misspelt one is no model key: exit 2 naming the copy's line."""
    lines = tables["model"].read_bytes().splitlines(keepends=True)
    line = lines[index]
    key, _, value = line.partition(b": ")
    lines[index] = {
        "drop": b"", "duplicate": line * 2, "misspelt": line + key[:-1] + b": " + value,
        "empty": key + b": \n", "word": key + b": x\n",
        "nan": key + b": nan\n", "inf": key + b": inf\n",
        "extra": line[:-1] + b"," + repr(number).encode() + b"\n",
        "colon": key + value,
        "byte": line[:at % len(line)] + b"\xff" + line[at % len(line):],
    }[spoil]
    with tempfile.TemporaryDirectory() as tmp:
        model = pathlib.Path(tmp, "model.txt")
        model.write_bytes(b"".join(lines))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["scan", "--model", str(model), "--features", str(tables["features"]),
                         "--out", str(pathlib.Path(tmp, "report.csv"))])
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
    errors = err.getvalue().splitlines()
    assert len(errors) == (code == 2) and all(line.startswith("error: ") for line in errors)
    if spoil == "duplicate":
        assert code == 2 and errors[0].startswith(
            f"error: line {index + 2}: duplicate model key: {key.decode()!r}")
    if spoil == "misspelt":
        assert code == 2 and errors[0].startswith(
            f"error: line {index + 2}: unknown model key: {key[:-1].decode()!r}")
    if spoil == "byte":
        assert "codec" not in err.getvalue()
        if key.decode() in _NUMERIC_MODEL_KEYS:
            assert code == 2 and (key.decode() in errors[0]
                                  or errors[0].startswith(f"error: line {index + 1}: "))


def test_train_on_a_table_with_a_nan_cell_exits_2(corpus, capsys):
    lines = corpus["features"].read_text().splitlines()
    fields = lines[3].split(",")
    fields[5] = "nan"  # density
    lines[3] = ",".join(fields)
    table = corpus["tmp"] / "nan.csv"
    table.write_text("\n".join(lines) + "\n")
    model_out = corpus["tmp"] / "m.txt"
    capsys.readouterr()
    assert main(["train", "--features", str(table), "--labels", str(corpus["labels"]),
                 "--model-out", str(model_out), "--min-nodes", "0"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: line 4: density, avg_comp_size and transfer_std_dev must be finite"]
    assert not model_out.exists()


@pytest.mark.parametrize("column, name", [
    (10, "amount"), (3, "num_nodes"), (4, "num_edges"), (6, "num_components"), (8, "lifetime"),
])
def test_train_on_a_table_with_a_count_beyond_float64_exits_2(corpus, capsys, column, name):
    lines = corpus["features"].read_text().splitlines()
    fields = lines[2].split(",")
    fields[column] = "1" + "0" * 400
    lines[2] = ",".join(fields)
    table = corpus["tmp"] / "huge.csv"
    table.write_text("\n".join(lines) + "\n")
    model_out = corpus["tmp"] / "m.txt"
    capsys.readouterr()
    assert main(["train", "--features", str(table), "--labels", str(corpus["labels"]),
                 "--model-out", str(model_out), "--min-nodes", "0"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: line 3: {name} beyond the float64 range"]
    assert not model_out.exists()


@pytest.mark.parametrize("command", ["train", "scan"])
def test_a_table_row_with_no_component_exits_2_naming_its_line(tables, tmp_path, capsys,
                                                               command):
    # edges_per_component divides num_edges by num_components
    lines = tables["features"].read_text().splitlines()
    fields = lines[4].split(",")
    fields[6] = "0"
    lines[4] = ",".join(fields)
    table = tmp_path / "features.csv"
    table.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    argv = {"train": ["train", "--variant", "reduced", "--labels", str(tables["labels"]),
                      "--min-nodes", "0", "--model-out", str(out)],
            "scan": ["scan", "--model", str(tables["model"]), "--out", str(out)]}[command]
    capsys.readouterr()
    assert main([*argv, "--features", str(table)]) == 2
    assert one_error_line(capsys) == "error: line 5: num_components must be at least 1"
    assert not out.exists()


# (column, a string that column's cell pattern accepts)
_TABLE_CELLS = st.integers(0, 10).flatmap(lambda column: st.tuples(st.just(column), st.from_regex(
    features_mod._CELL_PATTERNS[features_mod._TABLE_KINDS[column]], fullmatch=True)))


@settings(max_examples=40, deadline=None)
@given(cell=_TABLE_CELLS, row=st.integers(1, 40))
@example(cell=(6, "0"), row=3)  # no component
@example(cell=(4, "9" * 400), row=3)  # num_edges beyond float64
def test_a_table_with_one_cell_any_string_its_pattern_accepts_exits_0_or_2(tables, cell, row):
    """One cell of a valid feature table becomes any string its column's cell
    pattern accepts; ``train --variant reduced``, ``cv`` and ``scan`` each end
    in exit 0, or exit 2 with one ``error:`` line."""
    column, text = cell
    lines = tables["features"].read_text().splitlines()
    fields = lines[row].split(",")
    fields[column] = text
    lines[row] = ",".join(fields)
    labels = str(tables["labels"])
    with tempfile.TemporaryDirectory() as tmp:
        table, out = pathlib.Path(tmp, "features.csv"), str(pathlib.Path(tmp, "out"))
        table.write_text("\n".join(lines) + "\n")
        for argv in (["train", "--variant", "reduced", "--labels", labels,
                      "--min-nodes", "0", "--max-iters", "200", "--model-out", out],
                     ["cv", "--labels", labels, "--min-nodes", "0", "--max-iters", "200",
                      "--out", out],
                     ["scan", "--model", str(tables["model"]), "--out", out]):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main([*argv, "--features", str(table)])
            assert code in (0, 2), argv[0]
            assert "Traceback" not in err.getvalue()
            errors = [line for line in err.getvalue().splitlines() if line.startswith("error: ")]
            assert len(errors) == (code == 2), err.getvalue()


def test_cv_report_is_seed_deterministic(corpus):
    out1 = corpus["tmp"] / "cv1.csv"
    out2 = corpus["tmp"] / "cv2.csv"
    for out in (out1, out2):
        assert main(["cv", "--features", str(corpus["features"]),
                     "--labels", str(corpus["labels"]), "--out", str(out),
                     "--seed", "11"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert len(lines) == 7  # header, 5 folds, averaged row


@pytest.mark.parametrize("k", ["1", "0", "-2"])
def test_cv_with_fewer_than_two_folds_exits_2(corpus, capsys, k):
    out = corpus["tmp"] / "cv.csv"
    assert main(["cv", "--features", str(corpus["features"]),
                 "--labels", str(corpus["labels"]), "--out", str(out), "--k", k]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: k must be at least 2 folds, not {k}"]
    assert not out.exists()


@pytest.mark.parametrize("out", ["cv.csv", "nodir/cv.csv"])
def test_cv_k_below_2_exits_2_before_any_read_or_output_check(tmp_path, capsys, out):
    missing = str(tmp_path / "missing.csv")
    assert main(["cv", "--features", missing, "--labels", missing, "--k", "1",
                 "--out", str(tmp_path / out)]) == 2
    assert capsys.readouterr().err == "error: k must be at least 2 folds, not 1\n"
    assert list(tmp_path.iterdir()) == []


def test_cv_roc_files(corpus):
    out = corpus["tmp"] / "cv.csv"
    prefix = str(corpus["tmp"] / "roc")
    assert main(["cv", "--features", str(corpus["features"]),
                 "--labels", str(corpus["labels"]), "--out", str(out),
                 "--roc-out", prefix]) == 0
    for fold in range(1, 6):
        assert os.path.exists(f"{prefix}_fold-{fold}.csv")


def test_crosseval_self_and_skip(corpus, tmp_path, capsys):
    report = tmp_path / "cross.csv"
    empty_labels = tmp_path / "none.csv"
    empty_labels.write_text("token,suspicious\n")
    original = corpus["labels"].read_text().splitlines()
    clean_labels = tmp_path / "allclean.csv"
    clean_labels.write_text("\n".join([original[0]]
                                      + [line.rsplit(",", 1)[0] + ",0"
                                         for line in original[1:]]) + "\n")
    single = tmp_path / "single.csv"
    single.write_bytes(corpus["features"].read_bytes())
    assert main(["crosseval",
                 "--train-features", str(corpus["features"]),
                 "--train-labels", str(corpus["labels"]),
                 "--eval", str(corpus["features"]), str(corpus["labels"]),
                 "--eval", str(corpus["features"]), str(empty_labels),
                 "--eval", str(single), str(clean_labels),
                 "--out", str(report)]) == 0
    lines = report.read_text().splitlines()
    assert len(lines) == 2  # header + the one evaluable set; the others skipped
    err = capsys.readouterr().err
    assert "warning: features.csv has no labeled rows, skipped" in err
    assert "warning: single.csv has a single class, skipped" in err


def test_crosseval_eval_tables_sharing_a_name_exit_2(corpus, tmp_path, capsys, monkeypatch):
    other = tmp_path / "other" / "features.csv"
    other.parent.mkdir()
    other.write_bytes(corpus["features"].read_bytes())
    trained = []
    monkeypatch.setattr(cli_mod, "cross_window_eval",
                        lambda *args, **kwargs: trained.append(args))
    report, prefix = tmp_path / "cross.csv", tmp_path / "roc"
    assert main(["crosseval", "--train-features", str(corpus["features"]),
                 "--train-labels", str(corpus["labels"]),
                 "--eval", str(corpus["features"]), str(corpus["labels"]),
                 "--eval", str(other), str(corpus["labels"]),
                 "--out", str(report), "--roc-out", str(prefix)]) == 2
    assert capsys.readouterr().err == (
        f"error: --eval tables {corpus['features']} and {other} share the name "
        f"features.csv, which labels their report rows and ROC files\n")
    assert trained == []
    assert not report.exists() and not any(tmp_path.glob("roc*"))


# --- scan ------------------------------------------------------------------------------

def test_scan_full_model_is_variant_mismatch(corpus, tmp_path):
    model_path = tmp_path / "full.txt"
    main(["train", "--features", str(corpus["features"]),
          "--labels", str(corpus["labels"]), "--model-out", str(model_path)])
    scan_dir = tmp_path / "scan"
    main(["synth", "--out-dir", str(scan_dir), "--kind", "scan",
          "--n-tokens", "8", "--seed", "2"])
    scan_features = tmp_path / "scanfeat.csv"
    main(["features", "--fixture", str(scan_dir / "fixture.tsv"),
          "--out", str(scan_features)])
    assert main(["scan", "--model", str(model_path),
                 "--features", str(scan_features),
                 "--out", str(tmp_path / "report.csv")]) == 2


def test_scan_empty_features_reports_zeros(corpus, tmp_path):
    model_path = tmp_path / "red.txt"
    main(["train", "--features", str(corpus["features"]),
          "--labels", str(corpus["labels"]), "--model-out", str(model_path),
          "--variant", "reduced"])
    from tokengraphs.features import TABLE_HEADER
    empty = tmp_path / "empty.csv"
    empty.write_text(TABLE_HEADER + "\n")
    out = tmp_path / "report.csv"
    assert main(["scan", "--model", str(model_path), "--features", str(empty),
                 "--out", str(out)]) == 0
    assert "total_scanned,0" in out.read_text()


def test_scan_with_a_nan_intercept_exits_2(corpus, tmp_path, capsys):
    model_path = tmp_path / "red.txt"
    assert main(["train", "--features", str(corpus["features"]),
                 "--labels", str(corpus["labels"]), "--model-out", str(model_path),
                 "--variant", "reduced"]) == 0
    lines = model_path.read_text().splitlines()
    model_path.write_text("\n".join("intercept: nan" if line.startswith("intercept: ")
                                    else line for line in lines) + "\n")
    out = tmp_path / "report.csv"
    capsys.readouterr()
    assert main(["scan", "--model", str(model_path), "--features", str(corpus["features"]),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: intercept, coefficients, means and stds must be finite"]
    assert not out.exists()


# --- fetch ------------------------------------------------------------------------------

def test_fetch_requires_an_endpoint(tmp_path, monkeypatch):
    monkeypatch.delenv(ENDPOINT_ENV_VAR, raising=False)
    assert main(["fetch", "--start", "0", "--end", "10",
                 "--out", str(tmp_path / "f.tsv")]) == 2


def test_fetch_out_that_is_a_directory_exits_2_and_leaves_no_manifest(tmp_path, capsys):
    out = tmp_path / "d"
    out.mkdir()
    assert main(["fetch", "--start", "0", "--end", "10", "--out", str(out),
                 "--endpoint", "http://127.0.0.1:9"]) == 2
    assert one_error_line(capsys) == f"error: --out {out} is a directory"
    assert list(tmp_path.iterdir()) == [out] and list(out.iterdir()) == []


def test_fetch_bad_url_exits_nonzero(tmp_path):
    assert main(["fetch", "--start", "0", "--end", "2",
                 "--out", str(tmp_path / "f.tsv"),
                 "--endpoint", "http://127.0.0.1:1",
                 "--rpc-retries", "0", "--rpc-backoff", "0"]) == 3


def test_fetch_writes_fixture_via_fake_transport(tmp_path, monkeypatch):
    # run the command body directly with an injected transport
    provider = FakeProvider([rpc_entry(100, 0), rpc_entry(105, 1)])
    import tokengraphs.ingest as ingest_mod
    original = ingest_mod._requests_transport
    monkeypatch.setattr(ingest_mod, "_requests_transport", provider)
    out = tmp_path / "fetched.tsv"
    code = main(["fetch", "--start", "100", "--end", "110", "--chunk", "5",
                 "--out", str(out), "--endpoint", "http://fake",
                 "--rpc-backoff", "0"])
    assert code == 0
    text = out.read_text().splitlines()
    assert len(text) == 2
    manifest = json.loads(pathlib.Path(str(out) + ".manifest.json").read_text())
    assert manifest["state"]["finished"] is True
    assert manifest["state"]["completed_through"] == 110


def test_fetch_resume_skips_completed_chunks(tmp_path, monkeypatch):
    import tokengraphs.ingest as ingest_mod

    logs = [rpc_entry(100, 0), rpc_entry(104, 0), rpc_entry(108, 0)]

    class FlakyProvider(FakeProvider):
        outage = True

        def __call__(self, endpoint, payload, timeout):
            start = int(payload["params"][0]["fromBlock"], 16)
            if start >= 105 and self.outage:
                self.calls.append((start, None))
                raise ConnectionError("mid-run outage")
            return super().__call__(endpoint, payload, timeout)

    flaky = FlakyProvider(logs)
    monkeypatch.setattr(ingest_mod, "_requests_transport", flaky)
    out = tmp_path / "resumable.tsv"
    args = ["fetch", "--start", "100", "--end", "110", "--chunk", "5",
            "--out", str(out), "--endpoint", "http://fake",
            "--rpc-retries", "0", "--rpc-backoff", "0"]
    assert main(args) == 3  # outage after the first chunk
    manifest = json.loads(pathlib.Path(str(out) + ".manifest.json").read_text())
    assert manifest["state"]["completed_through"] == 105

    flaky.outage = False
    calls_before_resume = len(flaky.calls)
    assert main(args + ["--resume"]) == 0
    resumed_spans = flaky.calls[calls_before_resume:]
    assert resumed_spans == [(105, 109)]  # first chunk not re-fetched

    # byte-identical to an uninterrupted run
    clean = FakeProvider(logs)
    monkeypatch.setattr(ingest_mod, "_requests_transport", clean)
    reference = tmp_path / "reference.tsv"
    assert main(["fetch", "--start", "100", "--end", "110", "--chunk", "5",
                 "--out", str(reference), "--endpoint", "http://fake",
                 "--rpc-backoff", "0"]) == 0
    assert out.read_bytes() == reference.read_bytes()


class _Crash(Exception):
    """Stands in for the process dying at a chosen point."""


def test_fetch_resume_after_a_crash_between_chunk_and_state(tmp_path, monkeypatch):
    import tokengraphs.ingest as ingest_mod

    logs = [rpc_entry(100, 0), rpc_entry(103, 1), rpc_entry(106, 0), rpc_entry(108, 2)]
    monkeypatch.setattr(ingest_mod, "_requests_transport", FakeProvider(logs))
    args = ["fetch", "--start", "100", "--end", "110", "--chunk", "5",
            "--endpoint", "http://fake", "--rpc-backoff", "0"]
    reference = tmp_path / "reference.tsv"
    assert main(args + ["--out", str(reference)]) == 0

    out = tmp_path / "crashed.tsv"
    write_manifest = cli_mod._write_manifest
    states = []

    def dies_before_the_second_chunk_state(path, command, config, **extra):
        states.append(extra["state"]["completed_through"])
        if len(states) == 3:  # the initial state, chunk 1's, then chunk 2's
            raise _Crash
        write_manifest(path, command, config, **extra)

    monkeypatch.setattr(cli_mod, "_write_manifest", dies_before_the_second_chunk_state)
    with pytest.raises(_Crash):
        main(args + ["--out", str(out)])
    assert states == [100, 105, 110]
    with open(out, "ab") as handle:  # and a write torn by the crash
        handle.write(b"0x" + b"a" * 40 + b"\t0x12")
    manifest = json.loads(pathlib.Path(str(out) + ".manifest.json").read_text())
    assert manifest["state"]["completed_through"] == 105
    assert manifest["state"]["committed_bytes"] < out.stat().st_size

    monkeypatch.setattr(cli_mod, "_write_manifest", write_manifest)
    assert main(args + ["--out", str(out), "--resume"]) == 0
    assert out.read_bytes() == reference.read_bytes()
    lines = out.read_text().splitlines()
    assert len(lines) == len(set(lines)) == len(logs)
    manifest = json.loads(pathlib.Path(str(out) + ".manifest.json").read_text())
    assert manifest["state"]["committed_bytes"] == out.stat().st_size


def test_fetch_resume_refuses_a_fixture_shorter_than_its_state(tmp_path, monkeypatch,
                                                               capsys):
    import tokengraphs.ingest as ingest_mod

    monkeypatch.setattr(ingest_mod, "_requests_transport",
                        FakeProvider([rpc_entry(100, 0), rpc_entry(106, 0)]))
    out = tmp_path / "short.tsv"
    args = ["fetch", "--start", "100", "--end", "110", "--chunk", "5",
            "--out", str(out), "--endpoint", "http://fake", "--rpc-backoff", "0"]
    assert main(args) == 0
    manifest_path = str(out) + ".manifest.json"
    manifest = json.loads(pathlib.Path(manifest_path).read_text())
    manifest["state"].update(completed_through=105, finished=False)
    with open(manifest_path, "w") as handle:
        json.dump(manifest, handle)
    out.write_bytes(out.read_bytes()[:10])
    capsys.readouterr()
    assert main(args + ["--resume"]) == 2
    assert "without --resume" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [
    ["--chunk", "0"], ["--rpc-retries", "-1"], ["--rpc-timeout", "0"],
    ["--rpc-timeout", "-2"], ["--rpc-backoff", "-0.5"], ["--start", "10", "--end", "5"],
])
@pytest.mark.parametrize("resume", [[], ["--resume"]])
def test_fetch_argument_errors_leave_fixture_and_manifest_alone(tmp_path, monkeypatch,
                                                                capsys, bad, resume):
    import tokengraphs.ingest as ingest_mod

    provider = FakeProvider([rpc_entry(100, 0), rpc_entry(106, 0)])
    monkeypatch.setattr(ingest_mod, "_requests_transport", provider)
    out = tmp_path / "kept.tsv"
    args = ["fetch", "--start", "100", "--end", "110", "--chunk", "5",
            "--out", str(out), "--endpoint", "http://fake", "--rpc-backoff", "0"]
    assert main(args) == 0
    manifest = pathlib.Path(str(out) + ".manifest.json")
    before = out.read_bytes(), manifest.read_bytes()
    calls = len(provider.calls)
    capsys.readouterr()
    assert main(args + bad + resume) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert (out.read_bytes(), manifest.read_bytes()) == before
    assert len(provider.calls) == calls


def test_fetch_resume_refuses_a_manifest_of_another_range(tmp_path, monkeypatch, capsys):
    import tokengraphs.ingest as ingest_mod

    logs = [rpc_entry(120, 0), rpc_entry(180, 0), rpc_entry(350, 0)]
    monkeypatch.setattr(ingest_mod, "_requests_transport", FakeProvider(logs))
    out = tmp_path / "ranged.tsv"
    manifest = pathlib.Path(str(out) + ".manifest.json")

    def fetch(start, end, chunk, endpoint, *extra):
        return main(["fetch", "--start", start, "--end", end, "--chunk", chunk,
                     "--out", str(out), "--endpoint", endpoint, "--rpc-backoff", "0",
                     *extra])

    assert fetch("100", "200", "50", "http://fake") == 0
    before = out.read_bytes(), manifest.read_bytes()
    capsys.readouterr()
    assert fetch("300", "400", "50", "http://fake", "--resume") == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "100-200" in err[0] and "300-400" in err[0]
    assert (out.read_bytes(), manifest.read_bytes()) == before

    # the state is kept by block: another endpoint and chunk size may resume
    assert fetch("100", "200", "7", "http://other", "--resume") == 0
    assert out.read_bytes() == before[0]


def test_fetch_resume_refuses_a_manifest_of_another_command(tmp_path, monkeypatch,
                                                            capsys):
    import tokengraphs.ingest as ingest_mod

    provider = FakeProvider([rpc_entry(100, 0)])
    monkeypatch.setattr(ingest_mod, "_requests_transport", provider)
    out = tmp_path / "f.tsv"
    out.write_bytes(b"kept\n")
    manifest = pathlib.Path(str(out) + ".manifest.json")
    manifest.write_text(json.dumps({"command": "features",
                                    "config": {"fixture": "x", "out": str(out)},
                                    "state": {"completed_through": 105}}))
    before = manifest.read_bytes()
    assert main(["fetch", "--start", "100", "--end", "110", "--out", str(out),
                 "--endpoint", "http://fake", "--resume"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "'features'" in err[0] and "100-110" in err[0]
    assert (out.read_bytes(), manifest.read_bytes()) == (b"kept\n", before)
    assert provider.calls == []


def test_fetch_resume_of_a_manifest_nested_too_deep_exits_2(tmp_path, monkeypatch, capsys):
    import tokengraphs.ingest as ingest_mod

    provider = FakeProvider([rpc_entry(100, 0)])
    monkeypatch.setattr(ingest_mod, "_requests_transport", provider)
    out = tmp_path / "f.tsv"
    manifest = pathlib.Path(str(out) + ".manifest.json")
    manifest.write_text("[" * 100_000)
    assert main(["fetch", "--start", "100", "--end", "110", "--out", str(out),
                 "--endpoint", "http://fake", "--resume"]) == 2
    assert one_error_line(capsys) == f"error: manifest {manifest} nests too deep to read"
    assert manifest.read_text() == "[" * 100_000 and not out.exists()
    assert provider.calls == []


@pytest.mark.parametrize("state", [
    [1],
    {"completed_through": None},
    {"completed_through": True},
    {"completed_through": "105"},
    {"completed_through": 95},
    {"completed_through": 115},
    {"completed_through": 105, "committed_bytes": -1},
    {"completed_through": 105, "committed_bytes": "10"},
    {"completed_through": 105, "committed_bytes": 1.5},
    {"completed_through": 105, "committed_bytes": True},
    {"completed_through": 105},  # a resume would keep and repeat the second chunk
    {"completed_through": 105, "committed_bytes": 5},  # inside the first line
])
def test_fetch_resume_refuses_a_state_of_the_wrong_shape(tmp_path, monkeypatch, capsys,
                                                         state):
    import tokengraphs.ingest as ingest_mod

    provider = FakeProvider([rpc_entry(100, 0), rpc_entry(106, 0)])
    monkeypatch.setattr(ingest_mod, "_requests_transport", provider)
    out = tmp_path / "f.tsv"
    args = ["fetch", "--start", "100", "--end", "110", "--chunk", "5",
            "--out", str(out), "--endpoint", "http://fake", "--rpc-backoff", "0"]
    assert main(args) == 0
    manifest = pathlib.Path(str(out) + ".manifest.json")
    manifest.write_text(json.dumps({**json.loads(manifest.read_text()), "state": state}))
    before = out.read_bytes(), manifest.read_bytes()
    calls = len(provider.calls)
    capsys.readouterr()
    assert main(args + ["--resume"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    if isinstance(state, dict) and state["completed_through"] == 105:
        assert str(manifest) in err[0] and f"--out {out}" in err[0]
    assert (out.read_bytes(), manifest.read_bytes()) == before
    assert len(provider.calls) == calls


class ReplyProvider(FakeProvider):
    """Answers every call with one canned reply, whatever its shape."""

    def __init__(self, reply):
        super().__init__([])
        self.reply = reply

    def __call__(self, endpoint, payload, timeout):
        super().__call__(endpoint, payload, timeout)
        return self.reply


@pytest.mark.parametrize("reply", [
    {"jsonrpc": "2.0", "id": 1},                     # neither result nor error
    ["not", "an", "object"],                         # not a dict
    {"jsonrpc": "2.0", "id": 1, "error": "busy"},    # error is not a dict
    {"jsonrpc": "2.0", "id": 1, "result": None},     # result is not a list
])
def test_fetch_malformed_reply_is_retried_then_exits_3(tmp_path, monkeypatch,
                                                       capsys, reply):
    import tokengraphs.ingest as ingest_mod

    provider = ReplyProvider(reply)
    monkeypatch.setattr(ingest_mod, "_requests_transport", provider)
    assert main(["fetch", "--start", "100", "--end", "101",
                 "--out", str(tmp_path / "f.tsv"), "--endpoint", "http://fake",
                 "--rpc-retries", "2", "--rpc-backoff", "0"]) == 3
    assert len(provider.calls) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: eth_getLogs failed after 3 attempts: "
                          "provider error: malformed reply: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("provider", [
    ReplyProvider({"jsonrpc": "2.0", "id": 1, "error": {"code": -32000,
                                                        "message": "node is syncing"}}),
    FakeProvider([], fail_first=99),
], ids=["provider-error", "transport-error"])
def test_failed_fetch_prints_one_line_naming_the_cause(tmp_path, monkeypatch, capsys,
                                                       caplog, provider):
    import tokengraphs.ingest as ingest_mod

    monkeypatch.setattr(ingest_mod, "_requests_transport", provider)
    with caplog.at_level(logging.INFO, logger="tokengraphs.ingest"):
        assert main(["fetch", "--start", "100", "--end", "101",
                     "--out", str(tmp_path / "f.tsv"), "--endpoint", "http://fake",
                     "--rpc-retries", "2", "--rpc-backoff", "0"]) == 3
    assert not [r for r in caplog.records
                if r.name == "tokengraphs.ingest" and r.levelno >= logging.WARNING]
    assert len([r for r in caplog.records if r.name == "tokengraphs.ingest"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: eth_getLogs failed after 3 attempts: ")
    assert ("node is syncing" if isinstance(provider, ReplyProvider)
            else "synthetic transport failure") in err[0]


@pytest.mark.parametrize("entry, cause", [
    ({"address": "0x1"}, "KeyError('topics')"),
    ("not an object", "TypeError"),
    ({**rpc_entry(100, 0), "blockNumber": "0xzz"}, "ValueError"),
])
def test_fetch_malformed_log_entry_exits_3(tmp_path, monkeypatch, capsys, entry, cause):
    import tokengraphs.ingest as ingest_mod

    monkeypatch.setattr(ingest_mod, "_requests_transport",
                        ReplyProvider({"jsonrpc": "2.0", "id": 1, "result": [entry]}))
    assert main(["fetch", "--start", "100", "--end", "101",
                 "--out", str(tmp_path / "f.tsv"), "--endpoint", "http://fake",
                 "--rpc-backoff", "0"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: malformed log entry from provider: {cause}")


@pytest.mark.parametrize("field, value", [
    ("address", "0x" + "zz" * 20),
    ("data", "0x" + "0" * 62 + "_1"),               # int(..., 16) takes the "_"
    ("topics", [TOPIC, "0x" + "0" * 24 + "gg" * 20, "0x" + "0" * 64]),
    ("transactionHash", "0xq"),
    ("transactionHash", "0x" + "0" * 64 + "\n"),    # "$" matches before a "\n"
    ("blockNumber", "0x_1"),
    ("blockNumber", hex(1 << 63)),
    ("logIndex", hex(1 << 63)),
])
def test_fetch_of_a_field_the_fixture_reader_refuses_exits_3(tmp_path, monkeypatch,
                                                            capsys, field, value):
    import tokengraphs.ingest as ingest_mod

    entry = {**rpc_entry(100, 0), field: value}
    monkeypatch.setattr(ingest_mod, "_requests_transport",
                        ReplyProvider({"jsonrpc": "2.0", "id": 1, "result": [entry]}))
    out = tmp_path / "f.tsv"
    assert main(["fetch", "--start", "100", "--end", "101", "--out", str(out),
                 "--endpoint", "http://fake", "--rpc-backoff", "0"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: malformed log entry from provider: ValueError")
    assert out.read_bytes() == b""


@st.composite
def transfer_entries(draw):
    """1-3 Transfer-shaped eth_getLogs entries in mixed-case hex, about half
    with one field made a near miss: a character added or swapped in, text of
    hex-like characters, or a quantity of 2**63."""
    hex_digits = lambda n: draw(st.text("0123456789abcdefABCDEF", min_size=n, max_size=n))
    entries = []
    for _ in range(draw(st.integers(1, 3))):
        fields = {"address": "0x" + hex_digits(40),
                  "from": "0x" + "0" * 24 + hex_digits(40),
                  "to": "0x" + "0" * 24 + hex_digits(40),
                  "data": "0x" + hex_digits(64),
                  "blockNumber": hex(draw(st.integers(0, 1 << 63))),
                  "transactionHash": "0x" + hex_digits(64),
                  "logIndex": hex(draw(st.integers(0, 1 << 63)))}
        if draw(st.booleans()):
            key = draw(st.sampled_from(sorted(fields)))
            text = fields[key]
            at = draw(st.integers(0, len(text)))
            stray = draw(st.sampled_from("_gZx \n"))
            fields[key] = draw(st.sampled_from([
                text[:at] + stray + text[at:], text[:at] + stray + text[at + 1:],
                draw(st.text("0123456789abcdefABCDEFxX_g\n ", max_size=68))]))
        entries.append({"address": fields["address"],
                        "topics": [TOPIC, fields["from"], fields["to"]],
                        "data": fields["data"], "blockNumber": fields["blockNumber"],
                        "transactionHash": fields["transactionHash"],
                        "logIndex": fields["logIndex"]})
    return entries


@settings(max_examples=150, deadline=None)
@given(transfer_entries())
def test_every_fixture_fetch_writes_is_read_back(entries):
    import tokengraphs.ingest as ingest_mod

    provider = ReplyProvider({"jsonrpc": "2.0", "id": 1, "result": entries})
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(ingest_mod, "_requests_transport", provider):
        out = pathlib.Path(tmp) / "f.tsv"
        code = main(["fetch", "--start", "100", "--end", "101", "--out", str(out),
                     "--endpoint", "http://fake", "--rpc-backoff", "0"])
        lines = out.read_text().splitlines()
        events = list(read_fixture(out)) if code == 0 else []
    assert code in (0, 3)
    if code == 0:
        assert [format_fixture_line(event) for event in events] == lines


class NarrowProvider(FakeProvider):
    """Refuses as over its limit every request wider than ``max_span`` blocks."""

    def __init__(self, logs, max_span):
        super().__init__(logs)
        self.max_span = max_span

    def __call__(self, endpoint, payload, timeout):
        params = payload["params"][0]
        span = int(params["fromBlock"], 16), int(params["toBlock"], 16)
        if span[1] - span[0] >= self.max_span:
            self.over_limit_spans.add(span)
        return super().__call__(endpoint, payload, timeout)


@st.composite
def provider_logs(draw):
    """A shuffled eth_getLogs reply over blocks 100..100+width: transfers,
    NFT-shaped, foreign-topic and dirty-padding logs, repeated copies, and hex
    in mixed case."""
    width = draw(st.integers(1, 40))
    kinds = draw(st.lists(st.sampled_from(["transfer", "nft", "foreign", "dirty"]),
                          min_size=1, max_size=30))
    rnd = random.Random(draw(st.integers(0, 2**32)))  # hex is too bulky to draw
    hex_digits = lambda bits: format(rnd.getrandbits(bits), f"0{bits // 4}x")
    entries = []
    for n, kind in enumerate(kinds):
        topics = [TOPIC] + ["0x" + "0" * 24 + hex_digits(160) for _ in range(2)]
        data = "0x" + format(rnd.getrandbits(rnd.choice([8, 64, 128, 256])), "064x")
        if kind == "nft":
            topics, data = topics + ["0x" + hex_digits(256)], "0x"
        elif kind == "foreign":
            topics[0] = "0x" + hex_digits(256)
        elif kind == "dirty":
            topics[rnd.choice([1, 2])] = ("0x" + format(rnd.getrandbits(96) | 1, "024x")
                                          + hex_digits(160))
        entries.append({
            "address": "0x" + hex_digits(160), "topics": topics, "data": data,
            "blockNumber": hex(100 + rnd.randrange(width)),
            "transactionHash": "0x" + hex_digits(224) + format(n, "08x"),
            "logIndex": hex(rnd.randrange(4))})
    entries += [json.loads(json.dumps(rnd.choice(entries)))
                for _ in range(rnd.randrange(11))]
    rnd.shuffle(entries)
    mixed = lambda text: "".join(c.upper() if rnd.random() < 0.3 else c for c in text)
    for entry in entries:
        for key in ("address", "data", "blockNumber", "transactionHash", "logIndex"):
            entry[key] = mixed(entry[key])
        entry["topics"] = [mixed(topic) for topic in entry["topics"]]
    return width, entries


@settings(max_examples=60, deadline=None)
@given(provider_logs(), st.integers(1, 45), st.integers(1, 10))
def test_fetch_fixture_matches_the_straight_oracle(logs, chunk, max_span):
    import tokengraphs.ingest as ingest_mod

    width, entries = logs
    provider = NarrowProvider(entries, max_span)
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(ingest_mod, "_requests_transport", provider):
        out = pathlib.Path(tmp) / "f.tsv"
        assert main(["fetch", "--start", "100", "--end", str(100 + width),
                     "--chunk", str(chunk), "--out", str(out),
                     "--endpoint", "http://fake", "--rpc-backoff", "0"]) == 0
        fixture = out.read_bytes()
    assert fixture == "".join(line + "\n"
                              for line in straight_fetch_lines(entries)).encode()


# --- replay -----------------------------------------------------------------------------

def test_replay_reproduces_synth_byte_identically(tmp_path):
    first = tmp_path / "first"
    assert main(["synth", "--out-dir", str(first), "--n-tokens", "12",
                 "--seed", "5"]) == 0
    second = tmp_path / "second"
    assert main(["replay", str(first / "manifest.json"),
                 "--set", f"out_dir={second}"]) == 0
    assert ((first / "fixture.tsv").read_bytes()
            == (second / "fixture.tsv").read_bytes())


def test_replay_reproduces_cv_report(corpus):
    out = corpus["tmp"] / "cv.csv"
    assert main(["cv", "--features", str(corpus["features"]),
                 "--labels", str(corpus["labels"]), "--out", str(out)]) == 0
    first = out.read_bytes()
    assert main(["replay", str(out) + ".manifest.json"]) == 0
    assert out.read_bytes() == first


def test_replay_rejects_unknown_override(corpus):
    out = corpus["tmp"] / "cv.csv"
    main(["cv", "--features", str(corpus["features"]),
          "--labels", str(corpus["labels"]), "--out", str(out)])
    assert main(["replay", str(out) + ".manifest.json",
                 "--set", "bogus=1"]) == 2


def _manifest(argv, **changes) -> dict:
    """The manifest a run of ``argv`` writes, paths under "@tmp", with
    ``changes`` made to its config."""
    args = cli_mod.build_parser().parse_args(argv)
    return {"format": 1, "command": args.command,
            "config": {**cli_mod._config_from_args(args), **changes}}


def _synth_manifest(**changes) -> dict:
    return _manifest(["synth", "--out-dir", "@tmp/out", "--n-tokens", "3"], **changes)


_CROSSEVAL = ["crosseval", "--train-features", "@tmp/f", "--train-labels", "@tmp/l",
              "--eval", "@tmp/f", "@tmp/l", "--out", "@tmp/report.csv"]
_TRAIN = ["train", "--features", "@tmp/f", "--labels", "@tmp/l", "--model-out", "@tmp/m"]


@pytest.mark.parametrize("manifest, named", [
    ({"command": "train", "config": {}}, "'features'"),
    ({"command": "train"}, "'config'"),
    ([1], "'config'"),
    ({"command": "cv", "config": ["features"]}, "'config'"),
    (_synth_manifest(command="features"), "'command'"),
    (_synth_manifest(bogus=1), "'bogus'"),
    (_synth_manifest(kind="bogus"), "'bogus'"),
    (_synth_manifest(n_tokens="3"), "n_tokens '3' is not an int"),
    (_synth_manifest(n_tokens=3.0), "n_tokens 3.0 is not an int"),
    (_synth_manifest(n_tokens=True), "n_tokens True is not an int"),
    (_synth_manifest(window_width=None), "window_width None is not an int"),
    (_synth_manifest(scam_fraction=True), "scam_fraction True is not a number"),
    (_synth_manifest(scam_fraction="0.5"), "scam_fraction '0.5' is not a number"),
    (_synth_manifest(out_dir=None), "out_dir None is not a string"),
    (_synth_manifest(manifest=1), "manifest 1 is not a string"),
    (_manifest(_TRAIN, lam=10**400), "lam 1000000000"),      # no float64 holds it
    (_manifest(_TRAIN, log_amount=0), "log_amount 0 is not a bool"),
    (_manifest(_TRAIN, log_amount=None), "log_amount None is not a bool"),
    (_manifest(_CROSSEVAL, eval=["@tmp/f", "@tmp/l"]), "eval ["),
    (_manifest(_CROSSEVAL, eval=[]), "eval [] is not"),
    (_manifest(_CROSSEVAL, eval=[["@tmp/f"]]), "eval [["),
    ({"command": "replay", "config": {}}, "'replay'"),
    ({"format": 1, "command": ["features"], "config": {}}, "['features']"),
    ({"format": 1, "command": {"features": 1}, "config": {}}, "{'features': 1}"),
    pytest.param("[" * 100_000, "nests too deep to read",  # past json's recursion limit
                 id="manifest-nested-too-deep"),
])
def test_replay_of_a_malformed_manifest_exits_2(tmp_path, capsys, manifest, named):
    path = tmp_path / "bad.manifest.json"
    text = manifest if isinstance(manifest, str) else json.dumps(manifest)
    path.write_text(text.replace("@tmp", str(tmp_path)))
    assert main(["replay", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and named in err[0]
    assert list(tmp_path.iterdir()) == [path]


def test_replay_of_a_manifest_with_a_byte_between_json_tokens_names_its_line(tmp_path,
                                                                             capsys):
    path = tmp_path / "bad.manifest.json"
    lines = json.dumps(_synth_manifest(), indent=2).replace("@tmp", str(tmp_path)).split("\n")
    lines[2] = "\udcff" + lines[2]  # after the comma that ends line 2
    path.write_bytes("\n".join(lines).encode("utf-8", "surrogateescape"))
    assert main(["replay", str(path)]) == 2
    err = one_error_line(capsys)
    assert "codec" not in err and ": line 3 column 1 (char " in err
    assert list(tmp_path.iterdir()) == [path]


def test_replay_of_a_manifest_with_a_byte_in_a_path_opens_that_path(tmp_path, capsys):
    fixture = os.fsencode(tmp_path) + b"/fixture\xff.tsv"
    with open(fixture, "wb") as handle:  # the file is there; its one line is spoiled
        handle.write(b"not a fixture line\n")
    manifest = _manifest(["features", "--fixture", "@tmp/fixture@byte.tsv",
                          "--out", "@tmp/f.csv"])
    path = tmp_path / "features.manifest.json"
    path.write_bytes(json.dumps(manifest).replace("@tmp", str(tmp_path)).encode()
                     .replace(b"@byte", b"\xff"))
    assert main(["replay", str(path)]) == 2
    err = one_error_line(capsys)
    assert err == "error: line 1: expected 7 fields, got 1"  # no codec message
    assert not (tmp_path / "f.csv").exists()


@pytest.mark.parametrize("override, named", [
    ("log_amount=maybe", "log_amount 'maybe' is not a bool"),
    ("log_amount=", "log_amount '' is not a bool"),
    ("max_iters=1.5", "max_iters '1.5' is not an int"),
    ("lam=x", "lam 'x' is not a number"),
])
def test_replay_set_of_a_word_its_option_does_not_take_exits_2(tmp_path, capsys,
                                                               override, named):
    path = tmp_path / "m.manifest.json"
    path.write_text(json.dumps(_manifest(_TRAIN)).replace("@tmp", str(tmp_path)))
    assert main(["replay", str(path), "--set", override]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {named}")
    assert list(tmp_path.iterdir()) == [path]


def test_replay_set_parses_each_word_as_its_option_does(corpus):
    first, second = corpus["tmp"] / "first.txt", corpus["tmp"] / "second.txt"
    assert main(["train", "--features", str(corpus["features"]),
                 "--labels", str(corpus["labels"]), "--model-out", str(first)]) == 0
    assert main(["replay", str(first) + ".manifest.json", "--set", "log_amount=Yes",
                 "--set", "max_iters=7", "--set", "lam=0.25",
                 "--set", f"model_out={second}"]) == 0
    config = json.loads(pathlib.Path(str(second) + ".manifest.json").read_text())["config"]
    assert (config["log_amount"], config["max_iters"], config["lam"]) == (True, 7, 0.25)


def test_replay_set_outside_an_options_choices_exits_2(tmp_path, capsys):
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["synth", "--out-dir", str(first), "--n-tokens", "3"]) == 0
    capsys.readouterr()
    assert main(["replay", str(first / "manifest.json"), "--set", "kind=bogus",
                 "--set", f"out_dir={second}"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "'bogus'" in err[0]
    assert not second.exists()


# every command's run, inputs under "@in" (the ``tables`` corpus) and outputs
# under "@out", with the manifest path ``main`` writes by default
_RUNS = {
    "synth": (["synth", "--out-dir", "@out/corpus", "--n-tokens", "12", "--seed", "5"],
              "corpus/manifest.json"),
    "features": (["features", "--fixture", "@in/fixture.tsv", "--out", "@out/f.csv",
                  "--export-graphs", "@out/graphs", "--histogram-out", "@out/h.csv"],
                 "f.csv.manifest.json"),
    "train": (["train", "--features", "@in/features.csv", "--labels", "@in/labels.csv",
               "--min-nodes", "0", "--model-out", "@out/model.txt"],
              "model.txt.manifest.json"),
    "cv": (["cv", "--features", "@in/features.csv", "--labels", "@in/labels.csv",
            "--min-nodes", "0", "--out", "@out/cv.csv", "--roc-out", "@out/roc"],
           "cv.csv.manifest.json"),
    "crosseval": (["crosseval", "--train-features", "@in/features.csv",
                   "--train-labels", "@in/labels.csv", "--min-nodes", "0",
                   "--eval", "@in/features.csv", "@in/labels.csv",
                   "--out", "@out/cross.csv", "--roc-out", "@out/roc"],
                  "cross.csv.manifest.json"),
    "scan": (["scan", "--model", "@in/reduced.txt", "--features", "@in/features.csv",
              "--out", "@out/scan.csv"],
             "scan.csv.manifest.json"),
    "fetch": (["fetch", "--start", "100", "--end", "110", "--chunk", "5",
               "--out", "@out/fetched.tsv", "--endpoint", "http://fake", "--rpc-backoff", "0"],
              "fetched.tsv.manifest.json"),
}


def _run_argv(command, tables, out) -> list[str]:
    inputs = str(tables["features"].parent)
    return [arg.replace("@in", inputs).replace("@out", str(out)) for arg in _RUNS[command][0]]


def _fake_fetch_provider(monkeypatch):
    import tokengraphs.ingest as ingest_mod

    logs = [rpc_entry(100, 0), rpc_entry(103, 1), rpc_entry(106, 0), rpc_entry(108, 2)]
    monkeypatch.setattr(ingest_mod, "_requests_transport", FakeProvider(logs))


def _files(root: pathlib.Path) -> dict[str, bytes]:
    return {str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


@pytest.mark.parametrize("command", _RUNS)
def test_replay_rewrites_every_output_and_manifest_byte_identically(tables, tmp_path,
                                                                     monkeypatch, command):
    _fake_fetch_provider(monkeypatch)
    out = tmp_path / "out"
    out.mkdir()
    assert main(_run_argv(command, tables, out)) == 0
    first = _files(out)
    assert _RUNS[command][1] in first and len(first) > 1
    recorded = tmp_path / "recorded.json"
    recorded.write_bytes(first[_RUNS[command][1]])
    for path in out.rglob("*"):  # a replay that wrote nothing would pass otherwise
        if path.is_file():
            path.write_bytes(b"")
    assert main(["replay", str(recorded)]) == 0
    assert _files(out) == first


# --- manifest fuzz ------------------------------------------------------------------

_FETCH_LOGS = [rpc_entry(100, 0), rpc_entry(103, 1), rpc_entry(106, 0), rpc_entry(108, 2)]
_REMOVED = object()
# no "/" and no ".": a path drawn here stays inside the run's working directory
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats()
    | st.text("ab-é\x00", max_size=3),
    lambda inner: st.lists(inner, max_size=2)
    | st.dictionaries(st.text("ab", max_size=2), inner, max_size=2),
    max_leaves=3)


@st.composite
def manifest_edits(draw, manifest: dict) -> dict:
    """``manifest`` with one field, at the top or inside an object, removed
    or given another JSON value, or one unknown field added."""
    paths = [(key,) for key in manifest] + [
        (key, inner) for key, value in manifest.items() if isinstance(value, dict)
        for inner in value] + [("bogus",), ("config", "bogus")]
    *parents, key = draw(st.sampled_from(paths))
    value = draw(st.just(_REMOVED) | _JSON_VALUES)
    edited = json.loads(json.dumps(manifest))
    target = edited
    for parent in parents:
        target = target[parent]
    if value is _REMOVED:
        target.pop(key, None)
    else:
        target[key] = value
    return edited


def _ends_cleanly(argv, workdir) -> int:
    """``main(argv)``'s exit code, run in ``workdir``, after checking that it
    is 0, 2 or 3 and that stderr holds at most one ``error:`` line."""
    import tokengraphs.ingest as ingest_mod

    err, cwd = io.StringIO(), os.getcwd()
    os.chdir(workdir)  # a relative path drawn for an output lands here
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
                mock.patch.object(ingest_mod, "_requests_transport", FakeProvider(_FETCH_LOGS)):
            code = main(argv)
    finally:
        os.chdir(cwd)
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error: ")]
    assert len(errors) == (code != 0), err.getvalue()
    return code


@pytest.fixture(scope="module")
def recorded_runs(tables):
    """A manifest for each command as ``main`` records it (outputs under
    "@out", descent cut to 200 steps), and a fetch's finished manifest, its
    fixture and its state after the first of two chunks."""
    manifests = {}
    for command in _RUNS:
        argv = _run_argv(command, tables, "@out")
        if command in ("train", "cv", "crosseval"):
            argv += ["--max-iters", "200"]
        manifests[command] = _manifest(argv)
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp, "fetched.tsv")
        assert _ends_cleanly(_run_argv("fetch", tables, tmp), tmp) == 0
        fixture, fetched = out.read_bytes(), json.loads(
            pathlib.Path(str(out) + ".manifest.json").read_text())
    first_chunk = sum(len(line) for line in fixture.splitlines(keepends=True)
                      if int(line.split(b"\t")[4]) < 105)
    halfway = {**fetched, "state": {"completed_through": 105, "committed_bytes": first_chunk,
                                    "finished": False}}
    return {"replay": manifests, "fetch": (fixture, fetched, halfway)}


@settings(max_examples=25, deadline=None)
@given(data=st.data(), command=st.sampled_from(sorted(_RUNS)))
def test_replay_of_a_manifest_with_one_field_edited_ends_cleanly(recorded_runs, data, command):
    """One field of a recorded manifest is removed, retyped or added; replay
    runs it, or refuses it with one ``error:`` line."""
    manifest = data.draw(manifest_edits(recorded_runs["replay"][command]))
    with tempfile.TemporaryDirectory() as tmp:
        os.mkdir(os.path.join(tmp, "out"))
        path = pathlib.Path(tmp, "recorded.json")
        path.write_text(json.dumps(manifest).replace("@out", os.path.join(tmp, "out")))
        _ends_cleanly(["replay", str(path)], tmp)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), halfway=st.booleans())
def test_fetch_resume_of_a_manifest_with_one_field_edited_ends_cleanly(recorded_runs, tables,
                                                                        data, halfway):
    """One field of a fetch's manifest, finished or recorded after its first
    chunk, is removed, retyped or added; ``fetch --resume`` resumes from it,
    or refuses it with one ``error:`` line."""
    fixture, finished, after_one_chunk = recorded_runs["fetch"]
    manifest = data.draw(manifest_edits(after_one_chunk if halfway else finished))
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp, "fetched.tsv")
        out.write_bytes(fixture)
        pathlib.Path(str(out) + ".manifest.json").write_text(json.dumps(manifest))
        _ends_cleanly(_run_argv("fetch", tables, tmp) + ["--resume"], tmp)


# every output option of each command in _RUNS
_OUTPUTS = {
    "synth": ("--out-dir", "--manifest"),
    "features": ("--out", "--export-graphs", "--histogram-out", "--manifest"),
    "train": ("--model-out", "--manifest"),
    "cv": ("--out", "--roc-out", "--manifest"),
    "crosseval": ("--out", "--roc-out", "--manifest"),
    "scan": ("--out", "--manifest"),
    "fetch": ("--out", "--manifest"),
}


def _output_elsewhere(tables, workdir: pathlib.Path, command: str, option: str,
                      below_a_file: bool, depth: int) -> list[str]:
    """The argv of ``command`` with ``option`` pointed ``depth`` levels below
    a regular file, or at an existing directory, under ``workdir``."""
    argv = _run_argv(command, tables, workdir)
    if command in ("train", "cv", "crosseval"):
        argv += ["--max-iters", "200"]
    if below_a_file:
        (workdir / "file").write_text("kept\n")
        path = workdir.joinpath("file", *["x"] * depth)
    else:
        path = workdir.joinpath(*["d"] * depth)
        path.mkdir(parents=True)
    if option in argv:
        argv[argv.index(option) + 1] = str(path)
    else:
        argv += [option, str(path)]
    return argv


@settings(max_examples=30, deadline=None)
@given(data=st.data(), below_a_file=st.booleans(), depth=st.integers(1, 2))
def test_an_output_below_a_file_or_at_a_directory_ends_cleanly(tables, data, below_a_file,
                                                                 depth):
    """One output of one command names a path below a regular file, or an
    existing directory: the command exits 0, 2 or 3, with one ``error:`` line
    if it fails, no traceback, and the file left as it was.  A failed run
    writes no file, though it may have made a directory."""
    command = data.draw(st.sampled_from(sorted(_OUTPUTS)))
    option = data.draw(st.sampled_from(_OUTPUTS[command]))
    with tempfile.TemporaryDirectory() as tmp:
        workdir = pathlib.Path(tmp)
        argv = _output_elsewhere(tables, workdir, command, option, below_a_file, depth)
        before = _files(workdir)
        if _ends_cleanly(argv, tmp):
            assert _files(workdir) == before
        if below_a_file:
            assert (workdir / "file").read_text() == "kept\n"


@pytest.mark.parametrize("manifest", ["file/x", "dir"])
def test_synth_refuses_its_manifest_path_before_writing_the_corpus(tmp_path, monkeypatch,
                                                                   capsys, manifest):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file").write_text("kept\n")
    (tmp_path / "dir").mkdir()
    assert main(["synth", "--out-dir", "corpus", "--n-tokens", "3",
                 "--manifest", manifest]) == 2
    assert one_error_line(capsys).startswith(f"error: --manifest {manifest}")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["dir", "file"]


@pytest.mark.parametrize("command", _RUNS)
def test_each_command_writes_its_manifest_once_at_its_default_path(tables, tmp_path,
                                                                   monkeypatch, command):
    _fake_fetch_provider(monkeypatch)
    write_manifest, written = cli_mod._write_manifest, []

    def recording(path, name, config, **extra):
        state = extra.get("state")  # fetch updates its one state dict in place
        written.append((path, name, state and dict(state)))
        write_manifest(path, name, config, **extra)

    monkeypatch.setattr(cli_mod, "_write_manifest", recording)
    assert main(_run_argv(command, tables, tmp_path)) == 0
    path = str(tmp_path / _RUNS[command][1])
    if command != "fetch":
        assert written == [(path, command, None)]
        return
    # the state at the start, after each of the two chunks, and at the end
    assert [(p, name, state["completed_through"], state["finished"])
            for p, name, state in written] == [(path, "fetch", 100, False),
                                               (path, "fetch", 105, False),
                                               (path, "fetch", 110, False),
                                               (path, "fetch", 110, True)]


def test_only_main_and_fetch_write_a_manifest():
    with open(cli_mod.__file__, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    callers = {function.name for function in ast.walk(tree)
               if isinstance(function, ast.FunctionDef)
               for node in ast.walk(function)
               if isinstance(node, ast.Name) and node.id in ("_write_manifest", "_manifest_path")}
    assert callers == {"main", "cmd_fetch"}
    assert "replay" not in cli_mod._DISPATCH


@pytest.mark.parametrize("failure", ["single-class-train", "cv-k-above-a-class",
                                     "scan-with-a-full-model"])
def test_a_failed_run_writes_no_manifest(tables, tmp_path, capsys, failure):
    features, labels = str(tables["features"]), str(tables["labels"])
    lines = tables["labels"].read_text().splitlines()
    one_class = tmp_path / "clean.csv"
    one_class.write_text("\n".join([lines[0]] + [line.rsplit(",", 1)[0] + ",0"
                                                 for line in lines[1:]]) + "\n")
    full = tmp_path / "full.txt"
    assert main(["train", "--features", features, "--labels", labels, "--min-nodes", "0",
                 "--model-out", str(full)]) == 0
    os.remove(str(full) + ".manifest.json")
    capsys.readouterr()
    argv = {
        "single-class-train": ["train", "--features", features, "--labels", str(one_class),
                               "--min-nodes", "0", "--model-out", str(tmp_path / "m.txt")],
        "cv-k-above-a-class": ["cv", "--features", features, "--labels", labels,
                               "--min-nodes", "0", "--k", "40",
                               "--out", str(tmp_path / "cv.csv")],
        "scan-with-a-full-model": ["scan", "--model", str(full), "--features", features,
                                   "--out", str(tmp_path / "scan.csv")],
    }[failure]
    assert main(argv) == 2
    one_error_line(capsys)
    assert list(tmp_path.glob("*.manifest.json")) == []


@pytest.mark.parametrize("command, option", [
    ("train", "--model-out"), ("train", "--manifest"), ("cv", "--roc-out"),
    ("crosseval", "--roc-out"), ("scan", "--manifest"),
])
def test_an_output_below_a_missing_directory_exits_2_before_a_table_is_read(
        tables, tmp_path, capsys, command, option):
    out = tmp_path / "out"
    out.mkdir()
    path = str(out / "nodir" / "x")
    capsys.readouterr()
    with mock.patch.object(cli_mod, "read_feature_table", wraps=read_feature_table) as read:
        assert main([*_run_argv(command, tables, out), option, path]) == 2
    read.assert_not_called()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {option} {path}: {out / 'nodir'} is not a directory\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command, option", [
    ("train", "--model-out"), ("train", "--manifest"), ("cv", "--out"), ("crosseval", "--out"),
    ("scan", "--out"), ("features", "--out"), ("features", "--histogram-out"),
])
def test_a_file_output_that_is_a_directory_exits_2_before_any_input_is_read(
        tables, tmp_path, capsys, command, option):
    out = tmp_path / "out"
    (out / "dir").mkdir(parents=True)
    path = str(out / "dir")
    capsys.readouterr()
    with mock.patch.object(cli_mod, "read_feature_table", wraps=read_feature_table) as read, \
            mock.patch.object(cli_mod, "build_graphs") as build:
        assert main([*_run_argv(command, tables, out), option, path]) == 2
    read.assert_not_called()
    build.assert_not_called()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {option} {path} is a directory\n"
    assert [p for p in out.rglob("*") if p.is_file()] == []


@settings(max_examples=150, deadline=None)
@given(spoil=st.sampled_from(("byte", "cr", "nul", "column", "conflict", "no-header",
                              "header")),
       row=st.integers(1, 40), at=st.integers(0, 2_000))
@example(spoil="conflict", row=1, at=0)
@example(spoil="header", row=1, at=0)
def test_train_on_a_label_file_with_one_spoiled_byte_or_field_exits_0_or_2(tables, spoil,
                                                                           row, at):
    """A valid label file gains a byte that is not UTF-8, a ``\\r`` or a NUL
    anywhere, or one row gains a third column or is followed by a copy with
    the other flag, or the header is emptied or loses one character.  Only a
    ``\\r`` can leave the file valid, as a line end."""
    lines = tables["labels"].read_bytes().splitlines(keepends=True)
    token, flag = lines[row].rstrip(b"\n").split(b",")
    header = lines[0]
    data = b"".join(lines)
    if spoil in ("byte", "cr", "nul"):
        at %= len(data) + 1
        data = data[:at] + {"byte": b"\xff", "cr": b"\r", "nul": b"\0"}[spoil] + data[at:]
    else:
        lines[0], lines[row] = {
            "column": (header, token + b"," + flag + b",0\n"),
            "conflict": (header, lines[row] + token + (b",1\n" if flag == b"0" else b",0\n")),
            "no-header": (b"\n", lines[row]),
            "header": (header[:at % 16] + header[at % 16 + 1:], lines[row]),
        }[spoil]
        data = b"".join(lines)
    with tempfile.TemporaryDirectory() as tmp:
        labels = pathlib.Path(tmp, "labels.csv")
        labels.write_bytes(data)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["train", "--features", str(tables["features"]), "--labels",
                         str(labels), "--min-nodes", "0", "--max-iters", "200",
                         "--model-out", str(pathlib.Path(tmp, "model.txt"))])
    assert code in (0, 2) if spoil == "cr" else code == 2
    assert "Traceback" not in err.getvalue()
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error: ")]
    assert len(errors) == (code == 2)
    expected = {"column": f"line {row + 1}: expected 2 columns",
                "conflict": f"line {row + 2}: conflicting labels for {token.decode()}",
                "no-header": "unrecognized label header: ''",
                "header": "unrecognized label header: "}.get(spoil, "")
    assert all(line.startswith(f"error: {expected}") for line in errors)
