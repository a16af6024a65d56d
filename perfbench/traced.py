"""Traced run: one ``tokengraphs`` subcommand executed in-process, with a span
around every call into a layer's public functions.

    python3 perfbench/traced.py --workload W --run ID --stage S --spans OUT -- SUBCOMMAND ARGS...

The subcommand runs through the program's own ``tokengraphs.cli.main``.  Before
it starts, every public layer function in ``BOUNDARIES`` is replaced, in each
``tokengraphs`` module that refers to it, by a wrapper that opens a span
around the call; so calls the CLI makes and calls one layer makes into
another (``kfold_cv`` into ``train``, ``extract_features`` into
``weak_components``, ``gen_scan_corpus`` into ``write_fixture``) are all
timed, and no file under ``src/`` is changed.  The generators
``read_fixture`` and ``iter_window_groups`` are drained inside their span,
so parsing and windowing are timed apart from the graph build they feed.

Spans are kept in memory and written to OUT when the subcommand ends.  RSS
figures are increments of this process's own high-water mark
(``getrusage(RUSAGE_SELF)``) across a span; one stage runs per process, as in
the untraced run.

:func:`layer_metrics` turns the spans of one pass into the per-layer metrics.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import resource
import sys
import time
from contextlib import contextmanager

# (layer, function, items recorded from the call's result and arguments);
# the functions in DRAINED return generators
BOUNDARIES = (
    ("synth", "gen_corpus", lambda r, a: {"events": r["total_events"]}),
    ("synth", "gen_scan_corpus", lambda r, a: {"events": r["total_events"]}),
    ("ingest", "read_fixture", lambda r, a: {"transfers": len(r)}),
    ("ingest", "iter_window_groups", lambda r, a: {"windows": len(r)}),
    ("ingest", "partition_windows", lambda r, a: {"windows": len(r)}),
    ("ingest", "write_fixture", lambda r, a: {"transfers": r}),
    ("dataset", "write_labels", None),
    ("dataset", "load_labels", lambda r, a: {"labels": len(r)}),
    ("dataset", "join", lambda r, a: {
        "rows_kept": len(r), "unlabeled": len(r.unlabeled),
        "rows_under_min_nodes": sum(fv.num_nodes <= a[2] for fv in a[0])}),
    ("graphs", "build_graphs", lambda r, a: {
        "graphs": len(r), "nodes": sum(g.num_nodes for g in r.values())}),
    ("graphs", "weak_components", lambda r, a: {"components": r.count}),
    ("features", "extract_features", lambda r, a: {"rows": 1}),
    ("features", "write_feature_table", lambda r, a: {"rows": r}),
    ("features", "read_feature_table", lambda r, a: {"rows": len(r)}),
    ("features", "feature_matrix", None),
    ("model", "train", lambda r, a: {"iterations": r.iterations}),
    ("model", "save_model", None),
    ("model", "load_model", None),
    ("model", "predict_proba", None),
    ("evaluation", "kfold_cv", None),
    ("evaluation", "evaluate_model", None),
    ("evaluation", "unlabeled_scan", None),
    ("evaluation", "write_report", None),
    ("evaluation", "write_window_reports", None),
    ("evaluation", "write_scan_report", None),
)
DRAINED = {"read_fixture", "iter_window_groups"}

LAYERS = ("synth", "ingest", "graphs", "features", "dataset", "model",
          "evaluation", "cli")
STAGE_IDS = ("synth", "features", "train", "train_reduced", "cv", "crosseval",
             "scan")

# Every per-layer metric, in report order, with its unit.  Inclusive times
# are named after the function; ``<layer>.self_s`` excludes nested spans.
PER_LAYER = (
    ("synth.gen_corpus_s", "s"), ("synth.gen_scan_corpus_s", "s"),
    ("synth.events", "count"),
    ("ingest.read_fixture_s", "s"), ("ingest.transfers", "count"),
    ("ingest.read_fixture_rss_mb", "MB"), ("ingest.iter_window_groups_s", "s"),
    ("ingest.windows", "count"),
    ("graphs.build_graphs_s", "s"), ("graphs.graphs", "count"),
    ("graphs.nodes", "count"), ("graphs.build_graphs_rss_mb", "MB"),
    ("graphs.weak_components_s", "s"), ("graphs.components", "count"),
    ("features.extract_features_s", "s"), ("features.write_feature_table_s", "s"),
    ("features.read_feature_table_s", "s"), ("features.rows", "count"),
    ("dataset.load_labels_s", "s"), ("dataset.join_s", "s"),
    ("dataset.rows_kept", "count"), ("dataset.rows_under_min_nodes", "count"),
    ("dataset.unlabeled", "count"),
    ("model.train_s", "s"), ("model.gd_iterations_full", "count"),
    ("model.gd_iterations_reduced", "count"), ("model.gd_iteration_us", "us"),
    ("evaluation.kfold_cv_s", "s"), ("evaluation.evaluate_model_s", "s"),
    ("evaluation.unlabeled_scan_s", "s"), ("evaluation.fits", "count"),
    ("cli.import_s", "s"),
    *((f"cli.{stage}.overhead_s", "s") for stage in STAGE_IDS),
    *((f"{layer}.self_s", "s") for layer in LAYERS),
    ("trace.untraced_wall_s", "s"), ("trace.traced_wall_s", "s"),
    ("trace.wall_ratio", "ratio"), ("trace.spans", "count"),
)


def _max_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Spans of one traced stage, kept in memory until :meth:`write`."""

    def __init__(self, workload: str, run: str, stage: str):
        self.context = {"workload": workload, "run": run, "stage": stage}
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Time the block; the yielded dict takes item counts for the span."""
        record = {"name": name, "parent": self._open[-1] if self._open else None,
                  "items": {}, **self.context}
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        rss_before = _max_rss_kb()
        record["start"] = time.perf_counter()
        try:
            yield record["items"]
        finally:
            record["end"] = time.perf_counter()
            record["rss_kb"] = [rss_before, _max_rss_kb()]
            self._open.pop()

    def wrap(self, name: str, func, items, drain: bool):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name) as counts:
                result = func(*args, **kwargs)
                if drain:
                    result = list(result)
                if items is not None:
                    counts.update(items(result, args))
            return iter(result) if drain else result
        return traced

    def instrument(self) -> None:
        """Route every call of a boundary function through a span, including
        the calls other ``tokengraphs`` modules make through their imports."""
        modules = [m for key, m in sys.modules.items()
                   if key == "tokengraphs" or key.startswith("tokengraphs.")]
        for layer, name, items in BOUNDARIES:
            original = getattr(importlib.import_module(f"tokengraphs.{layer}"), name)
            traced = self.wrap(f"{layer}.{name}", original, items,
                               name in DRAINED)
            for module in modules:
                if getattr(module, name, None) is original:
                    setattr(module, name, traced)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--run", required=True)
    parser.add_argument("--stage", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)
    command = opts.command[1:] if opts.command[:1] == ["--"] else opts.command

    tracer = Tracer(opts.workload, opts.run, opts.stage)
    with tracer.span(f"cli.{opts.stage}"):
        with tracer.span("cli.import"):
            from tokengraphs import cli
        tracer.instrument()
        code = cli.main(command)
    tracer.write(opts.spans)
    return code


# ---------------------------------------------------------------------------
# spans -> per-layer metrics

# span name -> {item recorded on the span: metric it adds to}
ITEM_METRICS = {
    "synth.gen_corpus": {"events": "synth.events"},
    "synth.gen_scan_corpus": {"events": "synth.events"},
    "ingest.read_fixture": {"transfers": "ingest.transfers"},
    "ingest.iter_window_groups": {"windows": "ingest.windows"},
    "ingest.partition_windows": {"windows": "ingest.windows"},
    "graphs.build_graphs": {"graphs": "graphs.graphs", "nodes": "graphs.nodes"},
    "graphs.weak_components": {"components": "graphs.components"},
    "features.extract_features": {"rows": "features.rows"},
    "features.read_feature_table": {"rows": "features.rows"},
    "dataset.join": {"rows_kept": "dataset.rows_kept",
                     "unlabeled": "dataset.unlabeled",
                     "rows_under_min_nodes": "dataset.rows_under_min_nodes"},
}
RSS_METRICS = {"ingest.read_fixture": "ingest.read_fixture_rss_mb",
               "graphs.build_graphs": "graphs.build_graphs_rss_mb"}
GD_METRICS = {"train": "model.gd_iterations_full",
              "train_reduced": "model.gd_iterations_reduced"}
# timed net of the spans nested in them: extract_features computes the
# components itself, and those are reported as graphs.weak_components_s
NET_OF_NESTED = {"features.extract_features"}


def layer_metrics(spans: list[dict], untraced_walls: dict[str, float],
                  traced_walls: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one pass.

    ``spans`` hold every traced stage of the pass; the walls map stage id to
    the child's wall seconds in the untraced and the traced run.  A stage
    whose id has no overhead metric of its own (a set-up stage such as
    ``synth_w1``) adds to that of its subcommand, the id's first word.
    Layers and stages the workload does not exercise read 0.
    """
    metrics = {name: 0.0 for name, _unit in PER_LAYER}
    by_stage: dict[str, list[dict]] = {}
    for span in spans:
        by_stage.setdefault(span["stage"], []).append(span)

    train_self_s = 0.0
    iterations = 0
    for stage, stage_spans in by_stage.items():
        def called_by(span: dict, prefix: str) -> bool:
            parent = span["parent"]
            return parent is not None and stage_spans[parent]["name"].startswith(prefix)

        def within(span: dict, prefix: str) -> bool:
            while span["parent"] is not None:
                span = stage_spans[span["parent"]]
                if span["name"].startswith(prefix):
                    return True
            return False

        children_s = [0.0] * len(stage_spans)
        for span in stage_spans:
            if span["parent"] is not None:
                children_s[span["parent"]] += span["end"] - span["start"]
        layers_s = 0.0  # time in the layers' public functions, cli excluded
        for span, nested_s in zip(stage_spans, children_s):
            name = span["name"]
            layer = name.partition(".")[0]
            duration = span["end"] - span["start"]
            metrics[f"{layer}.self_s"] += duration - nested_s
            if name == "cli.import":  # one import per stage process
                metrics["cli.import_s"] += duration / len(by_stage)
            elif name in NET_OF_NESTED:
                metrics[f"{name}_s"] += duration - nested_s
            elif f"{name}_s" in metrics:
                metrics[f"{name}_s"] += duration
            if layer != "cli" and called_by(span, "cli."):
                layers_s += duration
            for item, metric in ITEM_METRICS.get(name, {}).items():
                metrics[metric] += span["items"][item]
            if name in RSS_METRICS:
                metrics[RSS_METRICS[name]] += (span["rss_kb"][1] - span["rss_kb"][0]) / 1024
            if name == "model.train":
                train_self_s += duration - nested_s
                iterations += span["items"]["iterations"]
                if stage in GD_METRICS and called_by(span, "cli."):
                    metrics[GD_METRICS[stage]] += span["items"]["iterations"]
                if within(span, "evaluation."):
                    metrics["evaluation.fits"] += 1
        if stage in untraced_walls:
            overhead = f"cli.{stage}.overhead_s"
            if overhead not in metrics:
                overhead = f"cli.{stage.partition('_')[0]}.overhead_s"
            metrics[overhead] += untraced_walls[stage] - layers_s
        metrics["trace.spans"] += len(stage_spans)

    if iterations:
        metrics["model.gd_iteration_us"] = train_self_s / iterations * 1e6
    metrics["trace.untraced_wall_s"] = sum(untraced_walls.values())
    metrics["trace.traced_wall_s"] = sum(traced_walls.values())
    if metrics["trace.untraced_wall_s"]:
        metrics["trace.wall_ratio"] = (metrics["trace.traced_wall_s"]
                                       / metrics["trace.untraced_wall_s"])
    return metrics


if __name__ == "__main__":
    sys.exit(main())
