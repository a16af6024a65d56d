"""Bytes per transfer: the peak RSS of a ``features`` child on the
bulk-window corpus (``synth --n-tokens 125 --seed 99 --scam-fraction 0.353``,
one window of 114,032 transfers), above what a ``--version`` child's import
alone takes."""

from __future__ import annotations

import os
import subprocess
import sys

from tokengraphs.synth import CorpusProfile, gen_corpus

from conftest import WINDOW

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
# 112-117 B measured with addresses packed per token (159-162 B before), plus
# 13 B (1.4 MB) for the peak's moves with the run's layout, which reached
# 1.1 MB with the --out name alone
BYTES_PER_TRANSFER = 130

# A child's ru_maxrss starts from the high-water mark of the process that
# spawned it, and pytest's may be far above a features run's; so a fresh
# interpreter spawns both children and prints their peaks in KB.
_PEAKS = """
import os, subprocess, sys
for argv in (["--version"], sys.argv[1:]):
    proc = subprocess.Popen([sys.executable, "-m", "tokengraphs.cli", *argv],
                            stdout=subprocess.DEVNULL)
    _pid, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        sys.exit(f"{argv[0]} exited {proc.returncode}")
    print(usage.ru_maxrss)
"""


def test_features_peak_rss_per_transfer(tmp_path):
    fixture = tmp_path / "fixture.tsv"
    corpus = gen_corpus(125, 0.353, [WINDOW], fixture, tmp_path / "labels.csv",
                        profile=CorpusProfile(), seed=99)
    transfers = corpus["total_events"]
    assert transfers == 114_032
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.pathsep.join(
        filter(None, (os.path.abspath(SRC), os.environ.get("PYTHONPATH")))))
    probe = subprocess.run(
        [sys.executable, "-c", _PEAKS, "features", "--fixture", str(fixture),
         "--out", str(tmp_path / "features.csv")],
        env=env, capture_output=True, text=True, check=False)
    assert probe.returncode == 0, probe.stderr
    floor_kb, features_kb = map(int, probe.stdout.split())
    per_transfer = (features_kb - floor_kb) * 1024 / transfers
    print(f"\n  features peak {features_kb / 1024:.1f} MB over a {floor_kb / 1024:.1f} MB "
          f"import floor: {per_transfer:.0f} B per transfer")
    assert per_transfer <= BYTES_PER_TRANSFER
