"""The benchmark's workloads: which subcommands each runs, on what inputs, and why.

Every workload is a closed loop: one stage runs at a time and the next starts
when it has exited.  Inputs come only from the workload seed; the program sees
nothing but the generated files.

``BENCHMARK.json`` gates bulk-window and train-eval.  interleaved-small runs
the same subcommands as bulk-window on a block-sorted corpus of twice the
graphs per transfer.  It is not gated because the time allowed for all runs
of the benchmark holds only two workloads at 24 s per run, the run length
that gave steady medians on a shared 2-vCPU machine (train-eval's set-up
alone takes about 50 s of each run).  Its ten-run figures are in
``baseline.json``; run it by hand when a change may help one corpus shape
and hurt the other.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

WINDOW_START = 18_000_000
WINDOW_WIDTH = 100_000


@dataclass(frozen=True)
class Stage:
    """One ``tokengraphs`` subcommand run as a child process.

    ``outputs`` are the files whose bytes are checked, relative to the
    directory the stage runs in.  ``fixture`` is the fixture the stage writes
    or reads; its line count is the transfer count of per-transfer figures.
    A stage with ``table`` set writes a feature table computed from
    ``fixture``, and the table is checked against the oracles.
    """

    id: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    fixture: str | None = None
    table: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    default_seed: int
    setup: tuple[Stage, ...]   # run once, in the run's input directory
    timed: tuple[Stage, ...]   # run every pass, each pass in a fresh directory
    inputs: tuple[str, ...]    # set-up outputs copied into every pass directory


# Corpus sizes.  The full sizes are a tenth of the criterion-9 corpus (and of
# the 2,500-token scan corpus), so that one run holds enough passes for a
# steady median on a noisy machine; the graph-size distributions, file
# orderings and the graphs-per-transfer ratio between the two feature
# workloads are unchanged.
# The train-eval window 1 is the criterion-6 corpus itself, because its exact
# GD iteration counts are part of what the benchmark pins; the held-out window
# and the scan corpus are small, as each feeds one cheap evaluation while its
# set-up time is paid twice in every train-eval run.
SIZES = {
    False: {"bulk": 125, "interleaved": 250, "w1": 926, "w2": 100, "scan": 200},
    True: {"bulk": 24, "interleaved": 40, "w1": 60, "w2": 30, "scan": 30},
}

DEFAULT_SEEDS = {"bulk-window": 99, "interleaved-small": 4242, "train-eval": 1}


def _synth(out_dir: str, n_tokens: int, seed: int, *extra: str) -> Stage:
    argv = ("synth", "--out-dir", out_dir, "--n-tokens", str(n_tokens),
            "--seed", str(seed), *extra)
    outputs = [f"{out_dir}/fixture.tsv"]
    if "scan" not in extra:
        outputs.append(f"{out_dir}/labels.csv")
    return Stage(f"synth_{out_dir}", argv, tuple(outputs), fixture=outputs[0])


def _features(fixture: str, table: str) -> Stage:
    return Stage(f"features_{table.removesuffix('.csv')}",
                 ("features", "--fixture", fixture, "--out", table),
                 (table,), fixture=fixture, table=table)


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    """The workload ``name`` at ``seed``; ``smoke`` shrinks every corpus."""
    size = SIZES[smoke]
    default = DEFAULT_SEEDS[name]
    if name == "bulk-window":
        synth = _synth("corpus", size["bulk"], seed, "--scam-fraction", "0.353")
        timed = (replace(synth, id="synth"),
                 replace(_features("corpus/fixture.tsv", "features.csv"), id="features"))
        return Workload(name, seed, default, (), timed, ())
    if name == "interleaved-small":
        synth = _synth("corpus", size["interleaved"], seed, "--kind", "scan")
        timed = (replace(synth, id="synth"),
                 replace(_features("corpus/fixture.tsv", "features.csv"), id="features"))
        return Workload(name, seed, default, (), timed, ())
    if name == "train-eval":
        setup = (
            _synth("w1", size["w1"], seed, "--scam-fraction", "0.353"),
            _features("w1/fixture.tsv", "w1.csv"),
            # a held-out next window from its own seed: every token is new
            _synth("w2", size["w2"], seed + 1, "--scam-fraction", "0.353",
                   "--window-start", str(WINDOW_START + WINDOW_WIDTH)),
            _features("w2/fixture.tsv", "w2.csv"),
            _synth("scan", size["scan"], seed, "--kind", "scan"),
            _features("scan/fixture.tsv", "scan.csv"),
        )
        w1 = ("--features", "w1.csv", "--labels", "w1/labels.csv")
        timed = (
            Stage("train", ("train", *w1, "--model-out", "model_full.txt"),
                  ("model_full.txt",)),
            Stage("train_reduced", ("train", *w1, "--variant", "reduced",
                                    "--model-out", "model_reduced.txt"),
                  ("model_reduced.txt",)),
            Stage("cv", ("cv", *w1, "--out", "cv.csv"), ("cv.csv",)),
            Stage("crosseval", ("crosseval", "--train-features", "w1.csv",
                                "--train-labels", "w1/labels.csv",
                                "--eval", "w2.csv", "w2/labels.csv",
                                "--out", "crosseval.csv"), ("crosseval.csv",)),
            Stage("scan", ("scan", "--model", "model_reduced.txt",
                           "--features", "scan.csv", "--out", "scan_report.csv"),
                  ("scan_report.csv",)),
        )
        inputs = ("w1.csv", "w1/labels.csv", "w2.csv", "w2/labels.csv", "scan.csv")
        return Workload(name, seed, default, setup, timed, inputs)
    raise ValueError(f"unknown workload {name!r}; choose from {sorted(DEFAULT_SEEDS)}")
