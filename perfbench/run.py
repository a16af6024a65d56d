#!/usr/bin/env python3
"""Pipeline benchmark for tokengraphs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run it from the root of a source checkout: the program runs from ``src/`` as
``python3 -m tokengraphs.cli`` and needs no build or install step.

A run builds its workload's inputs from ``--seed`` (see ``workloads.py``),
then repeats passes of the workload's timed subcommands, each pass in a fresh
directory with fresh copies of the prepared inputs, until ``--seconds``
would be exceeded.  Every subcommand is a child process; its wall time and its own
peak RSS come from ``os.wait4`` on that child.  Every output is checked (see
``checks.py``); a stage that exits non-zero or writes a wrong output counts
as failed.  Children run with ``PYTHONHASHSEED=0``.  The page cache is
warm: nothing is dropped between passes.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median wall of COLD_STARTS cold starts (``tokengraphs
  --version``) plus, for train-eval, the median over SETUP_REPEATS runs of
  the subcommands that build its tables, each run in a directory of its own
  and checked like every other output;
* ``pipeline_s``: summed wall of one pass's timed subcommands, median over
  passes;
* ``peak_rss_mb``: the largest peak RSS of one pass's subcommands, median
  over passes (MB = 2**20 bytes).

The walls of set-up stages and of passes are scaled for the machine's speed
(see CALIBRATION); the readable report gives the unscaled walls too.

``--trace 1`` also runs every pass, and the set-up stages once, through
``traced.py`` and reports the per-layer metrics listed there; as setup_s is
not reported then, the untraced set-up stages run once.  Both modes print a
readable report, then one JSON line whose ``attempted`` and ``failed`` count
stages.  Everything a run writes stays under ``.perfbench/`` in the checkout;
the working files are removed at the end and a result file with spans and
machine facts is kept.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import checks
import traced
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

COLD_STARTS = 7
SETUP_REPEATS = 2
RUN_LIMIT_S = 170.0  # stages still running then are killed and count as failed

END_TO_END = (("setup_s", "s"), ("pipeline_s", "s"), ("peak_rss_mb", "MB"))

# The calibration job: string formatting, dict inserts and a sort, like the
# pipeline, and independent of the program.  It runs after the cold starts,
# after every set-up stage and after every pass, and the wall of each set-up
# stage and of each pass is multiplied by CALIBRATION_REFERENCE_S over the
# mean of the job's two walls around it: scaled times are seconds at the speed
# at which this job takes the reference time.  On a 2-vCPU VM shared with
# other tenants the CPU speed a process gets drifted by a fifth within tens of
# seconds.  Over the ten 24 s runs per workload in baseline.json, scaling cut
# the spread (IQR/median) of pipeline_s from 0.093 to 0.036 on bulk-window
# and from 0.163 to 0.075 on train-eval, and that of setup_s on train-eval
# from 0.104 to 0.057.  Each set-up stage is scaled on its own because the
# job's walls before and after a whole 20 s set-up tracked its drift worse
# than no scaling did.  Cold starts, which mostly load modules, are not
# scaled: in trial runs the job tracked them worse than no scaling did.
CALIBRATION = (
    "rows = {}\n"
    "for i in range(100000):\n"
    "    rows.setdefault('0x%040x' % (i * 7919 % 100003), []).append((i, i % 97))\n"
    "sorted(rows.items(), key=lambda kv: kv[1][0][1])\n"
)
CALIBRATION_REFERENCE_S = 0.30


@dataclass
class StageRun:
    wall_s: float
    peak_rss_bytes: int
    speed: float = 1.0  # set-up stages: see CALIBRATION; passes carry their own


@dataclass
class Pass:
    stages: dict[str, StageRun] = field(default_factory=dict)
    traced: dict[str, StageRun] = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)
    speed: float = 1.0  # see CALIBRATION

    def walls(self) -> tuple[dict[str, float], dict[str, float]]:
        """Stage id -> wall seconds, untraced and traced."""
        return ({k: r.wall_s for k, r in self.stages.items()},
                {k: r.wall_s for k, r in self.traced.items()})


class Bench:
    """One run of one workload: set-up, timed passes, checks and metrics."""

    def __init__(self, workload: workloads.Workload, root: str,
                 expected: dict[str, str], trace: bool = False):
        self.workload = workload
        self.root = root
        self.trace = trace
        self.expected = expected          # recorded digests, default seed only
        self.reference: dict[str, str] = {}  # output -> digest of its first run
        self.transfers: dict[str, int] = {}  # fixture -> lines
        self.tables: dict[str, tuple[str, str, str]] = {}  # table -> stage, paths
        self.run_id = f"{workload.name}-s{workload.seed}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
        self.workdir = os.path.join(root, ".perfbench", "runs", self.run_id)
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.cold_starts: list[float] = []
        self.calibrations: list[float] = []  # the calibration job's walls, in order
        self.setups: list[dict[str, StageRun]] = []  # one per set-up run
        self.setup_trace = Pass()  # the traced set-up stages, when tracing
        self.passes: list[Pass] = []
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        # String hashing is randomised per process, and the dict and set
        # layouts it gives moved one features run by up to 17% on identical
        # input; one fixed seed leaves the input as what varies between runs.
        self.env["PYTHONHASHSEED"] = "0"

    # -- child processes ----------------------------------------------------

    def spawn(self, cmd: list[str], cwd: str, label: str) -> tuple[int, StageRun]:
        """Run one child to completion; its wall time and own peak RSS."""
        with open(os.path.join(cwd, f"{label}.log"), "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=cwd, env=self.env, stdout=log,
                                    stderr=subprocess.STDOUT)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()),
                                    proc.kill)
            timer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, StageRun(wall, usage.ru_maxrss * 1024)

    def run_stage(self, stage: workloads.Stage, cwd: str,
                  traced_pass: Pass | None = None) -> StageRun | None:
        """Run and check one stage; None when it exited non-zero."""
        self.attempted += 1
        prefix = [sys.executable, "-m", "tokengraphs.cli"]
        spans_path = os.path.join(cwd, f"{stage.id}.spans.json")
        if traced_pass is not None:
            prefix = [sys.executable, os.path.join(HERE, "traced.py"),
                      "--workload", self.workload.name, "--run", self.run_id,
                      "--stage", stage.id, "--spans", spans_path, "--"]
        code, result = self.spawn(prefix + list(stage.argv), cwd, stage.id)
        if code != 0:
            with open(os.path.join(cwd, f"{stage.id}.log"), "rb") as log:
                tail = log.read()[-300:].decode("utf-8", "replace").strip()
            self.fail(stage.id, f"exit {code}: {tail}")
            return None
        if traced_pass is not None:
            with open(spans_path, "r", encoding="utf-8") as handle:
                traced_pass.spans.extend(json.load(handle))
        problem = self.check(stage, cwd)
        if problem:
            self.fail(stage.id, problem)
        return result

    def fail(self, stage_id: str, problem: str) -> None:
        self.failed += 1
        self.problems.append(f"{stage_id}: {problem}")

    # -- output checks ------------------------------------------------------

    def check(self, stage: workloads.Stage, cwd: str) -> str | None:
        """What is wrong with the stage's outputs, or None."""
        for rel in stage.outputs:
            path = os.path.join(cwd, rel)
            if not os.path.isfile(path):
                return f"{rel} was not written"
            digest = checks.sha256(path)
            if rel in self.expected:
                want, source = self.expected[rel], "the recorded digest"
            elif rel in self.reference:
                want, source = self.reference[rel], "the first pass"
            else:
                self.reference[rel] = want = digest
                source = "itself"
            if digest != want:
                return f"{rel} differs from {source}"
            if rel.endswith("fixture.tsv") and rel not in self.transfers:
                self.transfers[rel] = checks.count_lines(path)
        if (stage.table and stage.table not in self.expected
                and stage.table not in self.tables):
            self.tables[stage.table] = (stage.id, os.path.join(cwd, stage.table),
                                        os.path.join(cwd, stage.fixture))
        return None

    def check_tables(self) -> None:
        """Compare the first copy of each feature table with the oracles.

        This runs after the timed passes, in a child process: the benchmark
        process itself stays smaller than any stage, because a child's
        ``ru_maxrss`` starts from its parent's high-water mark.
        """
        for stage_id, table, fixture in self.tables.values():
            probe = subprocess.run(
                [sys.executable, os.path.join(HERE, "checks.py"), self.root,
                 table, fixture, str(workloads.WINDOW_WIDTH)],
                capture_output=True, text=True, check=False,
                timeout=max(1.0, self.deadline - time.monotonic()))
            if probe.returncode != 0:
                self.fail(stage_id, f"oracle check failed: {probe.stderr[-300:]}")
            elif json.loads(probe.stdout):
                problems = json.loads(probe.stdout)
                self.fail(stage_id, f"{len(problems)} rows disagree with the "
                                    f"oracles, first: {problems[0]}")

    # -- the run ------------------------------------------------------------

    def new_dir(self, name: str) -> str:
        """A fresh directory holding copies of the inputs of the first set-up."""
        path = os.path.join(self.workdir, name)
        os.makedirs(path)
        for rel in self.workload.inputs:
            target = os.path.join(path, rel)
            os.makedirs(os.path.dirname(target), exist_ok=True)
            shutil.copyfile(os.path.join(self.workdir, "setup-0", rel), target)
        return path

    def set_up(self) -> bool:
        version = workloads.Stage("version", ("--version",), ())
        for _ in range(COLD_STARTS):
            result = self.run_stage(version, self.workdir)
            if result is None:
                return False
            self.cold_starts.append(result.wall_s)
        self.calibrate()  # the first set-up stage's or pass's span starts here
        if not self.workload.setup:
            return True
        for index in range(1 if self.trace else SETUP_REPEATS):
            cwd = os.path.join(self.workdir, f"setup-{index}")
            os.makedirs(cwd)
            self.setups.append({})
            for stage in self.workload.setup:
                result = self.run_stage(stage, cwd)
                if result is None:
                    return False
                result.speed = self.speed_since_calibration()
                self.setups[-1][stage.id] = result
            if index:  # its outputs were checked against the first set-up's, the one used
                shutil.rmtree(cwd)
        if self.trace:
            cwd = os.path.join(self.workdir, "setup-traced")
            os.makedirs(cwd)
            if not self.run_pass(self.workload.setup, cwd, self.setup_trace.traced,
                                 self.setup_trace):
                return False
            shutil.rmtree(cwd)
            self.calibrate()  # the first pass's span starts here
        return True

    def run_pass(self, stages: tuple[workloads.Stage, ...], cwd: str,
                 into: dict[str, StageRun], traced_pass: Pass | None = None) -> bool:
        for stage in stages:
            result = self.run_stage(stage, cwd, traced_pass)
            if result is None:
                return False
            into[stage.id] = result
        return True

    def run(self, seconds: float) -> None:
        os.makedirs(self.workdir)
        if self.set_up():
            self.measure(seconds)
        self.check_tables()

    def calibrate(self) -> None:
        _code, result = self.spawn([sys.executable, "-c", CALIBRATION],
                                   self.workdir, "calibration")
        self.calibrations.append(result.wall_s)

    def speed_since_calibration(self) -> float:
        """Run the calibration job; the speed over the work done since the
        previous one.  This job's wall is the start of the next span."""
        self.calibrate()
        return 2 * CALIBRATION_REFERENCE_S / sum(self.calibrations[-2:])

    def measure(self, seconds: float) -> None:
        loop_start = time.monotonic()
        durations = []
        while True:
            started = time.monotonic()
            current = Pass()
            index = len(self.passes)
            timed = self.workload.timed
            if not self.run_pass(timed, self.new_dir(f"pass-{index}"), current.stages):
                break
            if self.trace and not self.run_pass(timed, self.new_dir(f"pass-{index}-traced"),
                                                current.traced, current):
                break
            current.speed = self.speed_since_calibration()
            self.passes.append(current)
            durations.append(time.monotonic() - started)
            now = time.monotonic()
            if (now - loop_start + statistics.median(durations) > seconds
                    or now + max(durations) > self.deadline):
                break

    def clean(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    # -- metrics ------------------------------------------------------------

    def setup_s(self, scaled: bool = True) -> float:
        stages = [sum(r.wall_s * (r.speed if scaled else 1.0) for r in walls.values())
                  for walls in self.setups]
        return statistics.median(self.cold_starts) + (
            statistics.median(stages) if stages else 0.0)

    def end_to_end(self) -> dict[str, float]:
        return {
            "setup_s": self.setup_s(),
            "pipeline_s": statistics.median(
                sum(r.wall_s for r in p.stages.values()) * p.speed
                for p in self.passes),
            "peak_rss_mb": statistics.median(
                max(r.peak_rss_bytes for r in p.stages.values()) / 2**20
                for p in self.passes),
        }

    def per_layer(self) -> dict[str, float]:
        """Median over passes of each pass's per-layer metrics; the traced
        set-up stages, run once, count in every pass."""
        setup = Pass(stages=self.setups[0] if self.setups else {},
                     traced=self.setup_trace.traced)
        setup_untraced, setup_traced = setup.walls()
        per_pass = []
        for p in self.passes:
            untraced_walls, traced_walls = p.walls()
            per_pass.append(traced.layer_metrics(
                self.setup_trace.spans + p.spans,
                {**setup_untraced, **untraced_walls}, {**setup_traced, **traced_walls}))
        return {name: statistics.median(m[name] for m in per_pass)
                for name, _unit in traced.PER_LAYER}

    def stage_lines(self) -> list[str]:
        """The per-subcommand figures, as a reader wants them.  Times are
        scaled like ``pipeline_s`` and ``setup_s``, except those marked
        unscaled."""
        lines = [f"failed_stage_share {self.failed / max(1, self.attempted):.4f} "
                 f"ratio ({self.failed} of {self.attempted} stages)"]
        if not self.passes:
            return lines
        n = len(self.passes)
        for stage in self.workload.timed:
            walls = [p.stages[stage.id].wall_s * p.speed for p in self.passes]
            wall = statistics.median(walls)
            lines.append(f"{stage.id}_s {wall:.4f} s (median of {n} passes, "
                         f"{min(walls):.4f}-{max(walls):.4f})")
            if stage.fixture in self.transfers:
                count = self.transfers[stage.fixture]
                rss = statistics.median(p.stages[stage.id].peak_rss_bytes
                                        for p in self.passes)
                lines.append(f"{stage.id}_us_per_transfer {wall / count * 1e6:.4f} us "
                             f"({count} transfers)")
                lines.append(f"{stage.id}_peak_rss_bytes_per_transfer "
                             f"{rss / count:.2f} B")
        if self.workload.setup:  # the model-side workload reads prepared tables
            e2e = self.end_to_end()
            lines.append(f"model_pipeline_s {e2e['pipeline_s']:.4f} s (median of {n} passes)")
            lines.append(f"model_peak_rss_mb {e2e['peak_rss_mb']:.2f} MB")
            for stage in self.workload.setup:
                walls = [setup[stage.id].wall_s * setup[stage.id].speed
                         for setup in self.setups]
                lines.append(f"setup.{stage.id}_s {statistics.median(walls):.4f} s "
                             f"(median of {len(walls)}, {min(walls):.4f}-{max(walls):.4f})")
        walls = [sum(r.wall_s for r in p.stages.values()) for p in self.passes]
        lines.append(f"pipeline_wall_s {statistics.median(walls):.4f} s (unscaled, "
                     f"{min(walls):.4f}-{max(walls):.4f})")
        lines.append(f"setup_wall_s {self.setup_s(scaled=False):.4f} s (unscaled)")
        lines.append(f"calibration_s {statistics.median(self.calibrations):.4f} s "
                     f"(median of {len(self.calibrations)}; reference "
                     f"{CALIBRATION_REFERENCE_S} s)")
        lines.append(f"cold_start_s {statistics.median(self.cold_starts):.4f} s "
                     f"(unscaled, median of {len(self.cold_starts)}, "
                     f"{min(self.cold_starts):.4f}-{max(self.cold_starts):.4f})")
        own_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        lines.append(f"benchmark_process_peak_rss_mb {own_mb:.1f} MB "
                     f"(a lower bound on every stage's peak RSS)")
        return lines


def environment(root: str) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        probe = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                               capture_output=True, text=True, check=False)
        commit = probe.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "loadavg_at_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
        "page_cache": "warm: not dropped between runs or passes",
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.DEFAULT_SEEDS))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="corpora of a few dozen tokens, for the benchmark's tests")
    return parser.parse_args(argv)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None, bench_class=Bench) -> int:
    opts = parse_args(argv)
    needed = [os.path.join(ROOT, "src", "tokengraphs", "cli.py"),
              os.path.join(ROOT, "tests", "oracles.py")]
    missing = [os.path.relpath(p, ROOT) for p in needed if not os.path.isfile(p)]
    if missing:
        print(f"error: run from a tokengraphs checkout; missing {missing}",
              file=sys.stderr)
        return 2
    env = environment(ROOT)
    seed = workloads.DEFAULT_SEEDS[opts.workload] if opts.seed is None else opts.seed
    workload = workloads.build(opts.workload, seed, opts.smoke)
    use_digests = seed == workload.default_seed and not opts.smoke
    bench = bench_class(workload, ROOT,
                        checks.recorded_digests(workload.name) if use_digests else {},
                        trace=bool(opts.trace))
    try:
        bench.run(opts.seconds)
    finally:
        bench.clean()

    correct = bench.failed == 0 and bool(bench.passes)
    if bench.passes:
        names = traced.PER_LAYER if opts.trace else END_TO_END
        values = bench.per_layer() if opts.trace else bench.end_to_end()
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in names}
    else:
        metrics = {}
    print(f"# workload {workload.name} seed {seed} trace {opts.trace} "
          f"passes {len(bench.passes)} run {bench.run_id}")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    report = bench.stage_lines()
    for line in report:
        print(f"# {line}")
    for problem in bench.problems[:10]:
        print(f"# FAILED {problem}")
    for name, metric in metrics.items():
        print(f"# {name} {metric['value']:.6g} {metric['unit']}")

    result = {"correct": correct, "attempted": bench.attempted,
              "failed": bench.failed, "metrics": metrics}
    results_dir = os.path.join(ROOT, ".perfbench", "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{bench.run_id}-t{opts.trace}.json"),
              "w", encoding="utf-8") as handle:
        json.dump({"result": result, "env": env, "problems": bench.problems,
                   "report": report,
                   "digests": bench.reference,
                   "cold_starts": bench.cold_starts,
                   "calibrations": bench.calibrations,
                   "setups": [{k: vars(r) for k, r in setup.items()}
                              for setup in bench.setups],
                   "passes": [{"stages": {k: vars(r) for k, r in p.stages.items()},
                               "traced": {k: vars(r) for k, r in p.traced.items()},
                               "speed": p.speed,
                               "spans": p.spans} for p in bench.passes]},
                  handle)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
