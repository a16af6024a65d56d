"""The traced benchmark resolves its span boundaries by name; keep them resolvable."""

from __future__ import annotations

import importlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
TRACED = os.path.join(ROOT, "perfbench", "traced.py")


def test_every_traced_boundary_is_a_callable_of_its_layer():
    if not os.path.exists(TRACED):
        pytest.skip("perfbench/ is not part of this checkout")
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    missing = [f"{layer}.{name}" for layer, name, _items in traced.BOUNDARIES
               if not callable(getattr(importlib.import_module(f"tokengraphs.{layer}"),
                                       name, None))]
    assert not missing


# the spans each stage of a traced synth -> features -> train run records: a
# refactor that stops routing a layer's work through its boundary function
# hides that layer from the per-layer metrics
STAGE_SPANS = {
    "synth": {"synth.gen_corpus", "dataset.write_labels"},
    "features": {"ingest.iter_window_groups", "graphs.build_graphs", "graphs.weak_components",
                 "features.extract_features", "features.write_feature_table"},
    "train": {"dataset.load_labels", "dataset.join", "features.read_feature_table",
              "features.feature_matrix", "model.train", "model.save_model"},
}


def test_a_traced_run_records_a_span_at_every_layer_it_crosses(tmp_path):
    if not os.path.exists(TRACED):
        pytest.skip("perfbench/ is not part of this checkout")
    corpus, table = tmp_path / "corpus", str(tmp_path / "features.csv")
    commands = {
        "synth": ["synth", "--out-dir", str(corpus), "--n-tokens", "6", "--seed", "1"],
        "features": ["features", "--fixture", str(corpus / "fixture.tsv"), "--out", table],
        "train": ["train", "--features", table, "--labels", str(corpus / "labels.csv"),
                  "--model-out", str(tmp_path / "model.txt")],
    }
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    for stage, spans in STAGE_SPANS.items():
        out = tmp_path / f"{stage}.spans.json"
        run = subprocess.run([sys.executable, TRACED, "--workload", "guard", "--run", "0",
                              "--stage", stage, "--spans", str(out), "--", *commands[stage]],
                             env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        names = {span["name"] for span in json.loads(out.read_text())}
        assert spans <= names, f"{stage} records no span for {sorted(spans - names)}"
