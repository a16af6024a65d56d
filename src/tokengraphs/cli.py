"""Command-line pipeline runner.

Every subcommand resolves its full configuration and is deterministic given
it; ``main`` records it in a JSON manifest once the command returns, and
``tokengraphs replay MANIFEST`` reruns the command byte for byte through ``main``.

Exit codes: 0 success, 2 input/configuration errors (bad paths included), 3
operational failures (unreachable endpoints, a full disk, any other OS error).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

# one BLAS thread, set before numpy loads: a quicker start, and a fit's bits ignore core count
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from . import __version__
from .dataset import DEFAULT_MIN_NODES, join, load_labels
from .evaluation import (cross_window_eval, kfold_cv, unlabeled_scan,
                         write_report, write_roc, write_scan_report,
                         write_window_reports)
from .features import (VARIANTS, extract_features, feature_table, histogram_bins,
                       read_feature_table, write_feature_table, write_histograms)
from .graphs import build_graphs, export_graphs
from .ingest import (DEFAULT_WINDOW_WIDTH, ENDPOINT_ENV_VAR, INT64_MAX,
                     BlockWindow, FetchError, fetch_logs, iter_window_groups,
                     write_fixture)
from .model import TrainConfig, TrainingError, load_model, save_model, train
from .synth import gen_corpus, gen_scan_corpus

MANIFEST_FORMAT = 1

_INPUT_ERRORS = (ValueError, TrainingError, FileNotFoundError, IsADirectoryError,
                 NotADirectoryError, FileExistsError, PermissionError)


def _write_manifest(path: str, command: str, config: dict, **extra) -> None:
    """Write the manifest whole or not at all: a crash leaves the old one."""
    payload = {"format": MANIFEST_FORMAT, "command": command, "config": config, **extra}
    with open(path + ".tmp", "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(path + ".tmp", path)


def _read_manifest(path: str) -> dict:
    """A manifest as written by ``_write_manifest``: an object with a config."""
    # a non-UTF-8 byte: a JSON error between tokens, the same byte in a string's path
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        try:
            manifest = json.load(handle)
        except RecursionError:  # nested past the interpreter's recursion limit
            raise ValueError(f"manifest {path} nests too deep to read") from None
    if not isinstance(manifest, dict) or not isinstance(manifest.get("config"), dict):
        raise ValueError(f"manifest {path} is not a JSON object with a 'config' object")
    return manifest


def _manifest_path(args: argparse.Namespace) -> str:
    """``--manifest``, else synth's ``out_dir/manifest.json``, else the primary output's."""
    if args.command == "synth":
        return args.manifest or os.path.join(args.out_dir, "manifest.json")
    primary = args.model_out if args.command == "train" else args.out
    return args.manifest or primary + ".manifest.json"


def _config_from_args(args: argparse.Namespace) -> dict:
    return {k: v for k, v in vars(args).items() if k != "command"}


def _train_config(args: argparse.Namespace) -> TrainConfig:
    return TrainConfig(args.lam, args.learning_rate, args.max_iters, args.tolerance,
                       args.seed, args.log_amount)  # in field order


def _labeled(features_path: str, labels_path: str, min_nodes: int):
    """A feature table joined with its label file."""
    return join(read_feature_table(features_path), load_labels(labels_path), min_nodes)


def _settle_outputs(args: argparse.Namespace) -> None:
    """Refuse an output path whose directory is missing, or a file's path
    that names a directory, before any input is read."""
    for option in ("--out", "--model-out", "--roc-out", "--histogram-out", "--manifest"):
        path = getattr(args, option[2:].replace("-", "_"), None) or ""
        directory = os.path.dirname(path)
        if directory and not os.path.isdir(directory):
            raise ValueError(f"{option} {path}: {directory} is not a directory")
        if option != "--roc-out" and os.path.isdir(path):  # a prefix, not a file
            raise ValueError(f"{option} {path} is a directory")


def _warn_unless_converged(converged: bool, max_iters: int) -> None:
    if not converged:
        print(f"warning: gradient descent stopped at --max-iters "
              f"{max_iters} without converging", file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands

def cmd_fetch(args: argparse.Namespace) -> dict:
    endpoint = args.endpoint or os.environ.get(ENDPOINT_ENV_VAR)
    if not endpoint:
        raise ValueError(f"no JSON-RPC endpoint: pass --endpoint or set {ENDPOINT_ENV_VAR}")
    if args.start > args.end:
        raise ValueError("fetch range start must be <= end")
    window = BlockWindow(args.start, args.end)
    _settle_outputs(args)
    manifest_path = _manifest_path(args)

    # the state records the fixture's length after each completed chunk: a
    # resumed fetch cuts off whatever a crash left after it (a chunk whose
    # state was never written, or a torn line) before fetching that chunk again
    completed_through, committed = window.start, 0
    if args.resume and os.path.exists(manifest_path):
        previous = _read_manifest(manifest_path)
        recorded = previous["config"]
        if (previous.get("command") != "fetch"
                or (recorded.get("start"), recorded.get("end")) != window):
            raise ValueError(
                f"{manifest_path} records {previous.get('command')!r} over blocks "
                f"{recorded.get('start')}-{recorded.get('end')}, not fetch over "
                f"blocks {window}; fetch again without --resume")
        state = previous.get("state", {})
        completed_through = (state.get("completed_through", window.start)
                             if isinstance(state, dict) else None)
        if (type(completed_through) is not int
                or not window.start <= completed_through <= window.end):
            raise ValueError(
                f"{manifest_path} records the state {state!r}, which names no block "
                f"of {window.start}..{window.end} as done; fetch again without --resume")
        if completed_through > window.start:
            on_disk = os.path.getsize(args.out)
            committed = state.get("committed_bytes", on_disk)
            if type(committed) is not int or not 0 <= committed <= on_disk:
                raise ValueError(
                    f"{args.out} has {on_disk} bytes but its manifest committed "
                    f"{committed!r}; fetch again without --resume")
    chunks = fetch_logs(endpoint, BlockWindow(completed_through, window.end),
                        chunk=args.chunk, timeout=args.rpc_timeout,
                        retries=args.rpc_retries, backoff_base=args.rpc_backoff)
    if completed_through > window.start:
        print(f"resuming at block {completed_through}", file=sys.stderr)

    config = _config_from_args(args)
    state = {"completed_through": completed_through, "committed_bytes": committed,
             "finished": False}
    _write_manifest(manifest_path, "fetch", config, state=state)
    count = 0
    with open(args.out, "r+b" if committed else "wb") as out:
        out.seek(committed)
        out.truncate()
        for chunk_end, transfers in chunks:
            if written := write_fixture(transfers, out):
                out.flush()
                os.fsync(out.fileno())  # the lines are on disk before the state says so
                count += written
            state.update(completed_through=chunk_end, committed_bytes=out.tell())
            _write_manifest(manifest_path, "fetch", config, state=state)

    print(f"wrote {count} transfers to {args.out}")
    return {"state": {**state, "finished": True}}


def _feature_rows(windows, export_dir: str | None):
    """The feature table, one row per (token, window) in (window, token) order;
    graphs are released as windows close."""
    rows, exported = [], 0
    for window, batch in windows:
        graphs = build_graphs(batch, window)
        rows.extend(extract_features(g) for g in graphs.values())
        if export_dir:
            exported += export_graphs(graphs.values(), export_dir)
    rows.sort(key=lambda row: (row[1], row[0]))
    return feature_table(rows), exported


def cmd_features(args: argparse.Namespace) -> dict:
    # the width is checked and the fixture opened, then outputs are settled before
    # the fixture is read; --export-graphs first, as the directories it makes may hold --out
    windows = iter_window_groups(args.fixture, args.window_width)
    if args.export_graphs:
        os.makedirs(args.export_graphs, exist_ok=True)
    _settle_outputs(args)
    table, exported = _feature_rows(windows, args.export_graphs)
    count = write_feature_table(table, args.out)
    if args.export_graphs:
        print(f"exported {exported} edge lists to {args.export_graphs}")
    if args.histogram_out:
        write_histograms(histogram_bins(table), args.histogram_out)
    print(f"wrote {count} feature rows to {args.out}")
    return {}


def cmd_train(args: argparse.Namespace) -> dict:
    config = _train_config(args)
    _settle_outputs(args)
    dataset = _labeled(args.features, args.labels, args.min_nodes)
    model = train(dataset, config, args.variant)
    save_model(model, args.model_out)
    print(f"trained {args.variant} model on {len(dataset)} rows "
          f"({model.iterations} iterations, final loss {model.final_loss:.6f})")
    _warn_unless_converged(model.converged, args.max_iters)
    if dataset.unlabeled:
        print(f"warning: {len(dataset.unlabeled)} over-threshold tokens had no "
              f"label and were excluded", file=sys.stderr)
    return {}


def cmd_cv(args: argparse.Namespace) -> dict:
    config = _train_config(args)
    if args.k < 2:
        raise ValueError(f"k must be at least 2 folds, not {args.k}")
    _settle_outputs(args)
    dataset = _labeled(args.features, args.labels, args.min_nodes)
    report = kfold_cv(dataset, k=args.k, seed=args.seed, config=config, variant=args.variant)
    write_report(report, args.out)
    if args.roc_out:
        for fold in report.breakdown:
            write_roc(fold.roc, f"{args.roc_out}_{fold.label}.csv")
    print(f"{args.k}-fold cv on {len(dataset)} rows: "
          f"accuracy={report.accuracy:.4f} precision={report.precision:.4f} "
          f"recall={report.recall:.4f} f1={report.f1:.4f} auc={report.auc:.4f}")
    _warn_unless_converged(report.converged, args.max_iters)
    return {}


def cmd_crosseval(args: argparse.Namespace) -> dict:
    config = _train_config(args)
    _settle_outputs(args)
    train_set = _labeled(args.train_features, args.train_labels, args.min_nodes)

    paths, eval_sets = {}, []  # paths by basename, which labels a report row and ROC file
    for features_path, labels_path in args.eval:
        name = os.path.basename(features_path)
        eval_set = _labeled(features_path, labels_path, args.min_nodes)
        if not eval_set:
            print(f"warning: {name} has no labeled rows, skipped", file=sys.stderr)
        elif len(set(eval_set.labels)) < 2:
            print(f"warning: {name} has a single class, skipped", file=sys.stderr)
        elif name in paths:
            raise ValueError(f"--eval tables {paths[name]} and {features_path} share the "
                             f"name {name}, which labels their report rows and ROC files")
        else:
            paths[name] = features_path
            eval_sets.append(eval_set)
    model, reports = cross_window_eval(train_set, eval_sets, config, args.variant, labels=[*paths])
    write_window_reports(reports, args.out)
    if args.roc_out:
        for report in reports:
            write_roc(report.roc, f"{args.roc_out}_{os.path.splitext(report.label)[0]}.csv")
    for report in reports:
        print(f"{report.label}: accuracy={report.accuracy:.4f} "
              f"precision={report.precision:.4f} recall={report.recall:.4f} "
              f"f1={report.f1:.4f} auc={report.auc:.4f}")
    _warn_unless_converged(model.converged, args.max_iters)
    return {}


def cmd_scan(args: argparse.Namespace) -> dict:
    _settle_outputs(args)
    model = load_model(args.model)
    report = unlabeled_scan(model, read_feature_table(args.features),
                            max_nodes=args.max_nodes)
    write_scan_report(report, args.out)
    print(f"scanned {report.total} small graphs: "
          f"{report.predicted_scam} predicted scams ({report.scam_share:.1%}); "
          f">100 nodes {report.share_over_100_nodes:.1%}; "
          f"lifetime<1000 {report.share_lifetime_under_1000:.1%}")
    return {}


def cmd_synth(args: argparse.Namespace) -> dict:
    for option, value, least in (("--n-tokens", args.n_tokens, 0), ("--seed", args.seed, 0),
                                 ("--window-start", args.window_start, 0),
                                 ("--window-width", args.window_width, 1)):
        if value < least:
            raise ValueError(f"{option} must be >= {least}, not {value}")
    if args.window_start % args.window_width:  # features cuts windows at block // width
        raise ValueError(f"--window-start {args.window_start} is not a multiple of "
                         f"--window-width {args.window_width}")
    if not 0 <= args.scam_fraction <= 1:
        raise ValueError(f"--scam-fraction must be within [0, 1], not {args.scam_fraction}")
    windows = [BlockWindow(args.window_start + i * args.window_width,
                           args.window_start + (i + 1) * args.window_width)
               for i in range(args.n_windows)]
    if not windows:
        raise ValueError("at least one window is required")
    if args.kind == "scan" and len(windows) > 1:
        raise ValueError("a scan corpus has one window: pass --n-windows 1")
    if windows[-1].end > INT64_MAX:
        raise ValueError(f"--window-start {args.window_start} puts the last window's "
                         f"end at block {windows[-1].end}, past {INT64_MAX}")
    os.makedirs(args.out_dir, exist_ok=True)
    fixture = os.path.join(args.out_dir, "fixture.tsv")
    labels = os.path.join(args.out_dir, "labels.csv")
    try:  # each file is written whole or not at all: a failure leaves the old one
        if args.kind == "training":
            corpus = gen_corpus(args.n_tokens, args.scam_fraction, windows,
                                fixture + ".tmp", labels + ".tmp", seed=args.seed)
            os.replace(labels + ".tmp", labels)
        else:
            corpus = gen_scan_corpus(args.n_tokens, windows[0], fixture + ".tmp", seed=args.seed)
        os.replace(fixture + ".tmp", fixture)
    finally:
        for temp in (fixture + ".tmp", labels + ".tmp"):
            if os.path.exists(temp):
                os.remove(temp)
    print(f"generated {corpus['total_events']} events for {args.n_tokens} tokens "
          f"x {len(windows)} window(s) in {args.out_dir}")
    return {"corpus": corpus}


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tokengraphs",
        description="ERC-20 transfer graph analytics and scam-token classification",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--manifest", help="manifest path (default: <out>.manifest.json)")

    defaults = TrainConfig()
    hyper = argparse.ArgumentParser(add_help=False)
    hyper.add_argument("--lambda", dest="lam", type=float, default=defaults.lam,
                       help=f"L2 strength (default {defaults.lam})")
    hyper.add_argument("--learning-rate", type=float, default=defaults.learning_rate)
    hyper.add_argument("--max-iters", type=int, default=defaults.max_iters)
    hyper.add_argument("--tolerance", type=float, default=defaults.tolerance)
    hyper.add_argument("--min-nodes", type=int, default=DEFAULT_MIN_NODES,
                       help="strict node threshold for labeled rows (default 500)")
    hyper.add_argument("--variant", choices=sorted(VARIANTS), default="full")
    hyper.add_argument("--log-amount", action="store_true",
                       help="model amount as log10(1+x) instead of raw")

    p = sub.add_parser("fetch", parents=[common],
                       help="fetch Transfer logs into a fixture file")
    p.add_argument("--start", type=int, required=True, help="first block (inclusive)")
    p.add_argument("--end", type=int, required=True, help="last block (exclusive)")
    p.add_argument("--chunk", type=int, default=2_000)
    p.add_argument("--out", required=True)
    p.add_argument("--endpoint", help=f"JSON-RPC URL (default ${ENDPOINT_ENV_VAR})")
    p.add_argument("--resume", action="store_true",
                   help="continue from the manifest's last completed chunk")
    p.add_argument("--rpc-timeout", type=float, default=30.0)
    p.add_argument("--rpc-retries", type=int, default=3)
    p.add_argument("--rpc-backoff", type=float, default=0.5)

    p = sub.add_parser("features", parents=[common],
                       help="fixture -> per-(token, window) feature table")
    p.add_argument("--fixture", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--window-width", type=int, default=DEFAULT_WINDOW_WIDTH)
    p.add_argument("--export-graphs", metavar="DIR",
                   help="also write one edge-list file per graph")
    p.add_argument("--histogram-out", metavar="CSV",
                   help="also write per-feature histogram bins")

    p = sub.add_parser("train", parents=[common, hyper],
                       help="join features with labels and fit the classifier")
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--model-out", required=True)

    p = sub.add_parser("cv", parents=[common, hyper],
                       help="stratified k-fold cross-validation report")
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--roc-out", metavar="PREFIX",
                   help="write per-fold ROC point files <PREFIX>_<fold>.csv")

    p = sub.add_parser("crosseval", parents=[common, hyper],
                       help="train on one window, evaluate on others")
    p.add_argument("--train-features", required=True)
    p.add_argument("--train-labels", required=True)
    p.add_argument("--eval", nargs=2, action="append", required=True,
                   metavar=("FEATURES", "LABELS"))
    p.add_argument("--out", required=True)
    p.add_argument("--roc-out", metavar="PREFIX")

    p = sub.add_parser("scan", parents=[common],
                       help="score sub-threshold graphs with a reduced model")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--max-nodes", type=int, default=DEFAULT_MIN_NODES)

    p = sub.add_parser("synth", parents=[common],
                       help="generate a seeded synthetic corpus")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--kind", choices=("training", "scan"), default="training")
    p.add_argument("--n-tokens", type=int, default=926)
    p.add_argument("--scam-fraction", type=float, default=0.353)
    p.add_argument("--n-windows", type=int, default=1)
    p.add_argument("--window-start", type=int, default=18_000_000)
    p.add_argument("--window-width", type=int, default=DEFAULT_WINDOW_WIDTH)

    p = sub.add_parser("replay", help="re-run a command from its manifest")
    p.add_argument("manifest")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a recorded config value")

    return parser


_DISPATCH = {
    "fetch": cmd_fetch,
    "features": cmd_features,
    "train": cmd_train,
    "cv": cmd_cv,
    "crosseval": cmd_crosseval,
    "scan": cmd_scan,
    "synth": cmd_synth,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "replay":
            from .replay import replayed  # its checks are compiled by replay alone
            args = replayed(parser, _read_manifest(args.manifest), args.set or [])
        extra = _DISPATCH[args.command](args)
        _write_manifest(_manifest_path(args), args.command, _config_from_args(args), **extra)
        return 0
    except _INPUT_ERRORS + (FetchError, OSError) as exc:  # any other OSError is operational
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, _INPUT_ERRORS) else 3


def run() -> int:
    """``main`` as a process's last act: ``python -m tokengraphs.cli`` and the
    ``tokengraphs`` script.  However it ends, every object is frozen, so the
    interpreter's shutdown collections skip them; atexit handlers, stream flushes
    and refcount deallocation still run, and ``main`` has closed or moved every
    output into place before it returns."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
