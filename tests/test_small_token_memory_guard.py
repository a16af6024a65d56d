"""Bytes per transfer on the many-small-token shape: the peak RSS of a
``features`` child on 10,000 tokens of 3 transfers each (``write_tiny_corpus``,
one window of 30,000 transfers), above what a ``--version`` child's import
alone takes.  Per transfer this shape holds far more than bulk-window: one
graph, one feature row and one node list for every 3 transfers."""

from __future__ import annotations

import os
import subprocess
import sys

from conftest import write_tiny_corpus
from test_memory_guard import _PEAKS, SRC

TOKENS = 10_000
BYTES_PER_TRANSFER = 800


def test_features_peak_rss_per_transfer_on_many_small_tokens(tmp_path):
    fixture = tmp_path / "fixture.tsv"
    transfers = len(write_tiny_corpus(fixture, TOKENS, seed=0))
    assert transfers == 3 * TOKENS
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
