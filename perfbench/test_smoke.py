"""The benchmark's own tests, on corpora of a few dozen tokens.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)

# the per-subcommand figures each workload's report names, with their units
_FEATURE_STAGES = {"synth_us_per_transfer": "us", "synth_peak_rss_bytes_per_transfer": "B",
                   "features_us_per_transfer": "us",
                   "features_peak_rss_bytes_per_transfer": "B"}
REPORTED = {
    "bulk-window": _FEATURE_STAGES,
    "interleaved-small": _FEATURE_STAGES,
    "train-eval": {"model_pipeline_s": "s", "model_peak_rss_mb": "MB"},
}


def smoke(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


def test_spec_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.DEFAULT_SEEDS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.DEFAULT_SEEDS))
def test_every_metric_prints_with_its_unit(workload, trace):
    proc = smoke(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    units = {line.split()[1]: line.split()[3] for line in lines[:-1]
             if len(line.split()) > 3}
    for name, unit in {**REPORTED[workload], "failed_stage_share": "ratio"}.items():
        assert units[name] == unit
    if workload == "train-eval" and trace:
        assert result["metrics"]["model.gd_iterations_full"]["value"] > 0
        assert result["metrics"]["evaluation.fits"]["value"] == 5
        # the set-up stages are traced too
        assert result["metrics"]["synth.gen_scan_corpus_s"]["value"] > 0


class CorruptingBench(run.Bench):
    """Alters one number in the first feature table a stage writes."""

    corrupted = False

    def check(self, stage, cwd):
        if stage.table and not self.corrupted:
            path = os.path.join(cwd, stage.table)
            with open(path, encoding="utf-8") as handle:
                header, first, *rest = handle.read().splitlines()
            fields = first.split(",")
            fields[3] = str(int(fields[3]) + 1)  # num_nodes
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("\n".join([header, ",".join(fields), *rest]) + "\n")
            self.corrupted = True
        return super().check(stage, cwd)


def test_corrupted_output_counts_as_failed(capsys):
    code = run.main(["--workload", "bulk-window", "--seed", "7", "--seconds", "1",
                     "--trace", "0", "--smoke"], bench_class=CorruptingBench)
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert code == 0
    assert not result["correct"] and result["failed"] >= 1
    share = next(line for line in lines if line.startswith("# failed_stage_share"))
    assert float(share.split()[2]) > 0
    assert any("disagree with the oracles" in line for line in lines)


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = smoke("bulk-window", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
