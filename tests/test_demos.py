"""Every demo runs to completion as a script, against the package in src/,
and prints the figures recorded in ``tests/data/demos/<demo>.txt``."""

from __future__ import annotations

import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "data" / "demos"

# the one line that varies between runs: demo 03's temporary directory
_TMPDIR_LINE = re.compile(r"^artifacts in .*$", re.MULTILINE)


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """Each demo's one run, shared by the tests below."""
    runs: dict[pathlib.Path, subprocess.CompletedProcess] = {}

    def run_demo(demo: pathlib.Path) -> subprocess.CompletedProcess:
        if demo not in runs:
            workdir = tmp_path_factory.mktemp(demo.stem)
            env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
                   "TMPDIR": str(workdir)}  # the demos' working files land here
            runs[demo] = subprocess.run([sys.executable, str(demo)], cwd=workdir,
                                        env=env, capture_output=True, text=True,
                                        timeout=300)
        return runs[demo]
    return run_demo


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_exits_0(demo, run):
    proc = run(demo)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_prints_its_golden_text(demo, run):
    stdout = _TMPDIR_LINE.sub("artifacts in <tmpdir>", run(demo).stdout)
    assert stdout == (GOLDEN / f"{demo.stem}.txt").read_text(encoding="utf-8")
